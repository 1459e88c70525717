/**
 * @file
 * One workload run's result and its two renderings: the human table
 * and the one-line JSON report that ends stdout (run.py turns it into
 * the benchmark's result line; compare.py reads the saved reports).
 */

#ifndef PERFLEDGER_REPORT_HPP
#define PERFLEDGER_REPORT_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ledger {

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 0; //!< what the value was computed from
    std::string detail;   //!< e.g. per-interval sample counts
};

/** How a workload drives the system (echoed into the report). */
struct WorkloadShape
{
    std::string loop;      //!< "open" | "closed"
    double rateVps = 0;    //!< open loop: total offered rate
    size_t sessions = 0;   //!< TCP sessions (0 = in-process)
    size_t outstanding = 0; //!< closed loop: volleys in flight
    std::string entry;     //!< the public call or binary measured
};

/** Everything one run of one workload produced. */
struct WorkloadResult
{
    std::string workload;
    WorkloadShape shape;
    uint64_t seed = 0;
    double seconds = 0;
    double warmupS = 0;
    bool traced = false;

    bool correct = true;
    uint64_t attempted = 0; //!< volleys offered in the measured window
    uint64_t failed = 0;    //!< dropped, refused, unanswered or wrong
    std::vector<std::string> problems;
    /** Validity warnings: the numbers are suspect, the outputs are
     *  not wrong (e.g. the generator ran late). */
    std::vector<std::string> flags;

    std::vector<Metric> endToEnd;
    std::vector<Metric> layers; //!< traced runs only

    /** Record a correctness failure (the run exits non-zero). */
    void mismatch(const std::string &why);

    void add(std::vector<Metric> &into, std::string name, double value,
             std::string unit, uint64_t samples = 0,
             std::string detail = "");
};

/** Human-readable table of @p r. */
void printHuman(const WorkloadResult &r, std::ostream &out);

/** Full JSON report of @p r (one object, one line). */
std::string reportJson(const WorkloadResult &r);

/** A JSON number with every measured digit; +inf (a volley never
 *  answered) as 1e9. */
std::string jsonNumber(double v);

} // namespace ledger

#endif // PERFLEDGER_REPORT_HPP
