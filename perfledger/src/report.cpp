#include "report.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/eval_plan.hpp"
#include "obs/obs.hpp"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace ledger {

namespace {

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0 &&
            line.find(':') != std::string::npos)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void
metricsJson(std::ostream &os, const std::vector<Metric> &metrics)
{
    os << "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "") << quote(m.name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << quote(m.unit)
           << ", \"samples\": " << m.samples;
        if (!m.detail.empty())
            os << ", \"detail\": " << quote(m.detail);
        os << "}";
    }
    os << "}";
}

/** Machine fingerprint: cores, CPU, SIMD body, compiler, build. */
std::string
fingerprintJson()
{
    std::ostringstream os;
    os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"cpu\": " << quote(cpuModel())
       << ", \"simd\": " << quote(st::evalSimdBodyName())
       << ", \"compiler\": " << quote(compiler())
       << ", \"build_type\": " << quote(LEDGER_BUILD_TYPE)
       << ", \"obs_enabled\": " << ST_OBS_ENABLED << "}";
    return os.str();
}

} // namespace

void
WorkloadResult::mismatch(const std::string &why)
{
    correct = false;
    problems.push_back(why);
}

void
WorkloadResult::add(std::vector<Metric> &into, std::string name,
                    double value, std::string unit, uint64_t samples,
                    std::string detail)
{
    into.push_back({std::move(name), value, std::move(unit), samples,
                    std::move(detail)});
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return v < 0 ? "-1e9" : "1e9";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

void
printHuman(const WorkloadResult &r, std::ostream &out)
{
    out << "== " << r.workload << " (" << r.shape.loop << " loop";
    if (r.shape.rateVps > 0)
        out << ", " << r.shape.rateVps << " volleys/s";
    if (r.shape.sessions > 0)
        out << ", " << r.shape.sessions << " sessions";
    if (r.shape.outstanding > 0)
        out << " x " << r.shape.outstanding << " outstanding";
    out << "; " << r.shape.entry << "; seed " << r.seed << ", "
        << r.seconds << " s after " << r.warmupS << " s warm-up"
        << (r.traced ? ", traced" : "") << ")\n";
    const auto table = [&out](const char *title,
                              const std::vector<Metric> &metrics) {
        if (metrics.empty())
            return;
        out << "  " << title << "\n";
        for (const Metric &m : metrics) {
            char line[160];
            std::snprintf(line, sizeof line, "    %-26s %14s %-11s",
                          m.name.c_str(), jsonNumber(m.value).c_str(),
                          m.unit.c_str());
            out << line;
            if (m.samples)
                out << " n=" << m.samples;
            if (!m.detail.empty())
                out << " (" << m.detail << ")";
            out << "\n";
        }
    };
    table("end to end", r.endToEnd);
    table("per layer", r.layers);
    out << "  volleys sent " << r.attempted << ", succeeded "
        << r.attempted - std::min(r.attempted, r.failed) << ", failed "
        << r.failed << "; outputs "
        << (r.correct ? "verified" : "WRONG") << "\n";
    for (const std::string &p : r.problems)
        out << "  problem: " << p << "\n";
    for (const std::string &f : r.flags)
        out << "  flag: " << f << "\n";
}

std::string
reportJson(const WorkloadResult &r)
{
    std::ostringstream os;
    os << "{\"workload\": " << quote(r.workload)
       << ", \"shape\": {\"loop\": " << quote(r.shape.loop)
       << ", \"rate_vps\": " << jsonNumber(r.shape.rateVps)
       << ", \"sessions\": " << r.shape.sessions
       << ", \"outstanding\": " << r.shape.outstanding
       << ", \"entry\": " << quote(r.shape.entry) << "}"
       << ", \"seed\": " << r.seed
       << ", \"seconds\": " << jsonNumber(r.seconds)
       << ", \"warmup_s\": " << jsonNumber(r.warmupS)
       << ", \"traced\": " << (r.traced ? "true" : "false")
       << ", \"fingerprint\": " << fingerprintJson()
       << ", \"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed;
    for (const auto &[key, list] : {std::pair{"problems", &r.problems},
                                    std::pair{"flags", &r.flags}}) {
        os << ", \"" << key << "\": [";
        for (size_t i = 0; i < list->size(); ++i)
            os << (i ? ", " : "") << quote((*list)[i]);
        os << "]";
    }
    os << ", \"metrics\": ";
    metricsJson(os, r.endToEnd);
    os << ", \"layers\": ";
    metricsJson(os, r.layers);
    os << "}";
    return os.str();
}

} // namespace ledger
