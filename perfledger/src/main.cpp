/**
 * @file
 * bench_ledger — one run of one perf-ledger workload: it measures TCP
 * serving, the plan evaluator, the batch engine and the GRL simulator,
 * end to end and per layer, and checks every output it times.
 *
 *   bench_ledger --workload tnn-paced --seed 3 --seconds 30
 *   bench_ledger --workload offline --seconds 30 --trace-file t.json
 *   bench_ledger --workload lsm-paced --seconds 30 --smoke
 *
 * It prints a table, then, as the last line of stdout, the run's full
 * JSON report. perfledger/run.py builds it, runs it once per workload
 * and turns the reports into the benchmark's result line. With
 * --trace-file the run is the traced one: per-layer metrics plus a
 * Chrome trace. --smoke runs 1/20 of --seconds. Exit status is
 * non-zero when any output or protocol check fails.
 */

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace ledger;

namespace {

int
usage()
{
    std::cerr << "usage: bench_ledger --workload NAME --seconds S"
                 " [--seed N] [--trace-file PATH] [--smoke]\n"
                 "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

/** Removes the run's scratch directory on every exit path. */
struct ScratchDir
{
    fs::path path;
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** True when this process still has a child (running or unreaped). */
bool
childOutlived()
{
    while (waitpid(-1, nullptr, WNOHANG) > 0) {
    }
    return !(waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD);
}

} // namespace

int
main(int argc, char **argv)
{
    // Die with whatever started this run (run.py), so that killing it
    // also ends this process and, through theirs, its daemons.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    RunOptions opt;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_next = i + 1 < argc;
        if (arg == "--workload" && has_next) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && has_next) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_next) {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace-file" && has_next) {
            opt.traceOut = argv[++i];
        } else if (arg == "--smoke") {
            smoke = true;
        } else {
            return usage();
        }
    }
    const std::vector<std::string> &names = workloadNames();
    if (!(opt.seconds > 0) ||
        std::find(names.begin(), names.end(), opt.workload) == names.end())
        return usage();
    if (smoke)
        opt.seconds /= 20;
    opt.warmupS = std::min(kWarmupS, opt.seconds / 10);
    // The daemon and the hosted server read this. At the default 256
    // result lines a paced session ends in `err data_loss: egress
    // stalled` when a shared host keeps the server's writer thread off
    // its core for 256 volleys' time (26 ms at 10,000 volleys/s); 4096
    // lines ride out 16 times that. Set it to override.
    setenv("ST_SERVE_EGRESS", "4096", 0);

    const fs::path exe = fs::read_symlink("/proc/self/exe");
    opt.daemonExe = (exe.parent_path() / "stnet_serve").string();
    ScratchDir scratch{exe.parent_path() / "work" /
                       (opt.workload + "-seed" + std::to_string(opt.seed) +
                        "-" + std::to_string(getpid()))};
    fs::create_directories(scratch.path);
    opt.workDir = scratch.path.string();

    WorkloadResult result;
    try {
        result = isServeWorkload(opt.workload) ? runServeWorkload(opt)
                                               : runOfflineWorkload(opt);
    } catch (const std::exception &e) {
        std::cerr << "bench_ledger: " << opt.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
    if (childOutlived())
        result.mismatch("a child process outlived its workload");
    printHuman(result, std::cout);
    if (!opt.traceOut.empty())
        std::cout << "  chrome trace: " << opt.traceOut
                  << " (open in ui.perfetto.dev)\n";
    std::cout << reportJson(result) << std::endl;
    return result.correct ? 0 : 1;
}
