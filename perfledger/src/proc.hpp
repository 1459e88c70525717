/**
 * @file
 * Child processes and /proc readings: the stnet_serve daemon under
 * test (spawned, watched, SIGTERMed and always reaped) and the
 * per-process CPU, thread and peak-memory counters the ledger reports.
 */

#ifndef PERFLEDGER_PROC_HPP
#define PERFLEDGER_PROC_HPP

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

/** Steady-clock nanoseconds (the trace layer's time base). */
uint64_t nowNs();

/** CPU time of every live thread of @p pid, in nanoseconds. */
uint64_t processCpuNs(pid_t pid);

/** A "Name: value kB"-style field of /proc/<pid>/status (0 if absent). */
uint64_t procStatusField(pid_t pid, const char *field);

/** CPU time of the calling thread in nanoseconds. */
uint64_t threadCpuNs();

/** CPU time of the whole calling process in nanoseconds. */
uint64_t selfCpuNs();

/**
 * One spawned child whose stderr is a pipe the ledger reads. The
 * child dies with the ledger (PR_SET_PDEATHSIG), and the destructor
 * kills and reaps it on every path that did not already wait for it.
 */
class ChildProcess
{
  public:
    /** Spawn @p argv (argv[0] is the executable path); stdout and
     *  stdin go to /dev/null. Throws std::runtime_error on failure. */
    explicit ChildProcess(const std::vector<std::string> &argv);
    ~ChildProcess();

    ChildProcess(const ChildProcess &) = delete;
    ChildProcess &operator=(const ChildProcess &) = delete;

    pid_t pid() const { return pid_; }

    /** Everything the child wrote to stderr so far. */
    const std::string &log() const { return log_; }

    /** Read whatever stderr holds right now (never blocks). */
    void drainStderr();

    /**
     * Wait until stderr carries "listening <port>" and return the
     * port; 0 if the child exits or @p timeout_s passes first.
     */
    uint16_t waitListening(double timeout_s);

    /**
     * SIGTERM, then wait up to @p timeout_s for exit (SIGKILL after).
     * True iff the child exited 0 and printed "drained cleanly".
     */
    bool terminate(double timeout_s);

  private:
    /** Non-blocking reap; true once the child is gone. */
    bool reaped();

    pid_t pid_ = -1;
    int errFd_ = -1;
    int status_ = 0;
    std::string log_;
};

/** A blocking-connect loopback TCP socket (TCP_NODELAY on); -1 on
 *  failure. */
int dialLoopback(uint16_t port);

/**
 * Blocking line exchange for the cold-start probe: read lines from
 * @p fd until one starts with @p prefix or @p timeout_s passes. True
 * when found.
 */
bool readUntilPrefix(int fd, const std::string &prefix, double timeout_s);

/** write(2) all of @p data; false on error. */
bool writeAll(int fd, const std::string &data);

} // namespace ledger

#endif // PERFLEDGER_PROC_HPP
