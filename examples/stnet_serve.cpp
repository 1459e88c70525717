/**
 * @file
 * stnet_serve — the streaming AER inference daemon.
 *
 * Loads (or builds) a model, starts a StreamServer, and serves the
 * stserve wire protocol (see serve/session.hpp) over a transport:
 *
 *   stnet_serve --demo 8 --tcp 0              # demo TNN, ephemeral port
 *   stnet_serve --model net.tnn --tcp 7170    # trained TNN from disk
 *   stnet_serve --model net.stmf --tcp 7170   # packed STMF container
 *   stnet_serve --model-dir models/ --tcp 0   # newest *.stmf, hot-swap
 *   stnet_serve --lsm-demo 16 --pipe          # LSM anomaly scoring on
 *                                             # stdin/stdout
 *   stnet_serve --demo 8 --tcp 0 --chaos 0.3  # live fault injection
 *
 * --model sniffs the file: the STMF magic selects the binary container
 * loader (mmap; every malformed byte is a contextual error, never a
 * crash), anything else is parsed as the text TNN format. With
 * --model-dir the daemon boots from the highest-versioned valid
 * *.stmf and hot-reloads on SIGHUP or the `reload` wire command; a
 * watcher thread (--watch-ms, default 500, 0 disables) also triggers
 * the reload when a newer version lands in the directory. A reload
 * that fails validation or the canary rolls back: the incumbent keeps
 * serving and the `reload` reply / log carries the reason.
 *
 * The bound TCP port is announced on stderr as "listening <port>" so a
 * driver using an ephemeral port can find it. SIGTERM/SIGINT starts a
 * graceful drain: admission stops, in-flight volleys finish, every
 * session gets its end line, and the final metrics snapshot goes to
 * stderr before the process exits 0 (exit 1 if the drain had to
 * force-close sessions).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "model/serialize.hpp"
#include "model/stmf.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "tnn/tnn_io.hpp"
#include "util/parse.hpp"
#include "util/version.hpp"

using namespace st;
using namespace st::serve;

namespace {

int
usage()
{
    std::cerr
        << "usage: stnet_serve [model] [transport] [options]\n"
           "  model:     --demo N | --lsm-demo N | --model FILE\n"
           "             | --model-dir DIR (newest *.stmf, hot-swap)\n"
           "  transport: --tcp PORT (0 = ephemeral) | --pipe\n"
           "  options:   --chaos SEVERITY (0..1, deterministic seed)\n"
           "             --threads N (batch fan-out; 0 = auto)\n"
           "             --watch-ms N (model-dir poll; 0 = off)\n"
           "--model FILE sniffs STMF vs text TNN; SIGHUP or the\n"
           "`reload` wire command re-loads and hot-swaps the model.\n"
           "All serve limits also read ST_SERVE_* env vars\n"
           "(see serve/config.hpp).\n";
    return 2;
}

/** A small but real 2-layer WTA column stack for --demo mode. */
TnnNetwork
buildDemoTnn(size_t inputs)
{
    TnnNetwork net;
    ColumnParams l1;
    l1.numInputs = inputs;
    l1.numNeurons = inputs * 2;
    l1.wtaK = 4;
    net.addLayer(l1);
    ColumnParams l2;
    l2.numInputs = inputs * 2;
    l2.numNeurons = inputs;
    l2.wtaK = 1;
    net.addLayer(l2);
    return net;
}

fault::FaultSpec
chaosSpec(double severity)
{
    fault::FaultSpec spec;
    spec.seed = 0x5e54e;
    spec.jitter = static_cast<Time::rep>(severity * 4.0);
    spec.dropProb = 0.10 * severity;
    spec.spuriousProb = 0.05 * severity;
    return spec;
}

/** Does the file start with the STMF container magic? */
bool
looksLikeStmf(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    char head[4] = {};
    in.read(head, sizeof(head));
    return in.gcount() == 4 && std::memcmp(head, "STMF", 4) == 0;
}

/**
 * The reload procedure shared by SIGHUP, the `reload` wire command
 * and the directory watcher: pick the candidate (newest valid *.stmf
 * in dir mode, the fixed path otherwise), load it, and swap it in
 * through the server's canary. Internally synchronized — the server
 * may invoke it from its housekeeping thread or a transport thread
 * concurrently.
 */
struct ModelReloader
{
    StreamServer *server = nullptr;
    std::string dir;       //!< empty = fixed-path mode
    std::string fixedPath; //!< used when dir is empty

    std::mutex mutex;
    std::string appliedPath;
    uint64_t appliedVersion = 0;
    uint32_t appliedCrc = 0;

    Status
    reload()
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::string path = fixedPath;
        Status skipped; // first corrupt sibling seen by the dir scan
        if (!dir.empty()) {
            const Status pick = pickLatestModel(dir, path, &skipped);
            if (!pick.isOk())
                return !skipped.isOk() ? skipped : pick;
        }
        model::LoadedModel loaded;
        ST_RETURN_IF_ERROR(
            model::loadModel(path, model::LoadMode::Mmap, loaded));
        if (path == appliedPath &&
            loaded.info.version == appliedVersion &&
            loaded.info.fileCrc == appliedCrc) {
            // Nothing new to publish; still surface a corrupt sibling
            // (e.g. a botched upload of the next version) so the
            // operator's `reload` reply explains why it was skipped.
            return skipped;
        }
        std::unique_ptr<ServeModel> candidate =
            makeServeModel(loaded);
        if (!candidate)
            return Status(StatusCode::Internal,
                          path + ": loaded model has no engine");
        ST_RETURN_IF_ERROR(server->swapModel(std::move(candidate),
                                             loaded.info));
        appliedPath = path;
        appliedVersion = loaded.info.version;
        appliedCrc = loaded.info.fileCrc;
        return Status::ok();
    }

    /**
     * Cheap poll for the watcher: has the directory's best candidate
     * (path, version, file checksum) moved past what is serving?
     * Reads only the container header + META — no full decode.
     */
    bool
    changed()
    {
        std::string path;
        if (!pickLatestModel(dir, path).isOk())
            return false;
        model::StmfFile file;
        if (!model::StmfFile::open(path, model::LoadMode::Copy, file)
                 .isOk())
            return false; // racing writer; next poll settles it
        model::ModelInfo info;
        if (!model::decodeMeta(file, info).isOk())
            return false;
        std::lock_guard<std::mutex> lock(mutex);
        return path != appliedPath || info.version != appliedVersion ||
               file.fileCrc() != appliedCrc;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    size_t demoInputs = 0;
    size_t lsmInputs = 0;
    std::string modelFile;
    std::string modelDir;
    bool pipe = false;
    bool haveTcp = false;
    uint16_t tcpPort = 0;
    double chaos = -1.0;
    size_t threads = 0;
    uint64_t watchMs = 500;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasNext = i + 1 < argc;
        if (arg == "--demo" && hasNext) {
            demoInputs = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--lsm-demo" && hasNext) {
            lsmInputs = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--model" && hasNext) {
            modelFile = argv[++i];
        } else if (arg == "--model-dir" && hasNext) {
            modelDir = argv[++i];
        } else if (arg == "--tcp" && hasNext) {
            haveTcp = true;
            tcpPort = static_cast<uint16_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--pipe") {
            pipe = true;
        } else if (arg == "--chaos" && hasNext) {
            chaos = std::strtod(argv[++i], nullptr);
        } else if (arg == "--threads" && hasNext) {
            threads = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--watch-ms" && hasNext) {
            watchMs = std::strtoull(argv[++i], nullptr, 10);
        } else {
            return usage();
        }
    }
    if (!pipe && !haveTcp)
        return usage();
    if ((demoInputs > 0) + (lsmInputs > 0) + (!modelFile.empty()) +
            (!modelDir.empty()) !=
        1)
        return usage();

    // An STMF boot carries its identity into health; text/demo models
    // fall back to the server's builtin placeholder info.
    std::unique_ptr<ServeModel> model;
    model::ModelInfo stmfInfo;
    bool haveStmfInfo = false;
    std::string stmfPath; // the container actually loaded, if any
    try {
        if (demoInputs > 0) {
            model = std::make_unique<TnnServeModel>(
                buildDemoTnn(demoInputs));
        } else if (lsmInputs > 0) {
            ReservoirParams params;
            params.numInputs = lsmInputs;
            params.numNeurons = 96;
            model = std::make_unique<LsmAnomalyModel>(params, 8);
        } else {
            std::string path = modelFile;
            if (!modelDir.empty()) {
                const Status pick = pickLatestModel(modelDir, path);
                if (!pick.isOk()) {
                    std::cerr << "stnet_serve: " << pick.str()
                              << "\n";
                    return 1;
                }
            }
            if (!modelDir.empty() || looksLikeStmf(path)) {
                model::LoadedModel loaded;
                const Status status = model::loadModel(
                    path, model::LoadMode::Mmap, loaded);
                if (!status.isOk()) {
                    std::cerr << "stnet_serve: " << status.str()
                              << "\n";
                    return 1;
                }
                model = makeServeModel(loaded);
                stmfInfo = loaded.info;
                haveStmfInfo = true;
                stmfPath = path;
            } else {
                std::ifstream in(path);
                if (!in) {
                    std::cerr << "stnet_serve: cannot open " << path
                              << "\n";
                    return 1;
                }
                std::ostringstream os;
                os << in.rdbuf();
                model = std::make_unique<TnnServeModel>(
                    tnnFromText(os.str()));
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "stnet_serve: model load failed: " << e.what()
                  << "\n";
        return 1;
    }

    ServeConfig config = ServeConfig::fromEnv();
    if (threads > 0)
        config.nthreads = threads;

    // Two-phase construction keeps one server object whichever boot
    // path ran; the STMF path hands its real ModelInfo to the ctor.
    std::unique_ptr<StreamServer> serverPtr;
    if (haveStmfInfo)
        serverPtr = std::make_unique<StreamServer>(
            std::shared_ptr<ServeModel>(std::move(model)), stmfInfo,
            config);
    else
        serverPtr =
            std::make_unique<StreamServer>(std::move(model), config);
    StreamServer &server = *serverPtr;

    // Hot reload: SIGHUP and the `reload` wire command re-run the
    // loader; --model-dir mode additionally polls for new versions.
    ModelReloader reloader;
    std::thread watcher;
    std::atomic<bool> stopWatcher{false};
    if (haveStmfInfo) {
        reloader.server = &server;
        reloader.dir = modelDir;
        reloader.fixedPath = stmfPath;
        reloader.appliedPath = stmfPath;
        reloader.appliedVersion = stmfInfo.version;
        reloader.appliedCrc = stmfInfo.fileCrc;
        server.setReloadHandler([&reloader] {
            return reloader.reload();
        });
        if (!modelDir.empty() && watchMs > 0)
            watcher = std::thread([&] {
                while (!stopWatcher.load(std::memory_order_acquire)) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(watchMs));
                    if (stopWatcher.load(std::memory_order_acquire))
                        break;
                    if (reloader.changed())
                        (void)server.triggerReload();
                }
            });
    }

    if (chaos >= 0.0)
        server.enableChaos(chaosSpec(chaos));
    StreamServer::installSignalHandlers(&server);
    server.start();

    // ST_METRICS_EXPORT=path[,interval_ms]: periodic Prometheus text
    // snapshots (atomic tmp+rename) for scrapers; ST_FLIGHT=path arms
    // the flight-recorder dump the incident paths (and the drain
    // below) write.
    std::unique_ptr<obs::MetricsExporter> exporter =
        obs::MetricsExporter::fromEnv();
    if (exporter)
        exporter->start();

    bool clean = true;
    if (pipe) {
        runPipeSession(server, stdin, stdout);
        server.requestStop();
        clean = server.waitDrained();
    } else {
        try {
            TcpTransport tcp(server, tcpPort);
            std::cerr << "listening " << tcp.port() << std::endl;
            tcp.serve(); // returns when SIGTERM/SIGINT drains
            clean = server.waitDrained();
        } catch (const std::exception &e) {
            std::cerr << "stnet_serve: " << e.what() << "\n";
            return 1;
        }
    }

    stopWatcher.store(true, std::memory_order_release);
    if (watcher.joinable())
        watcher.join();

    if (exporter)
        exporter->stop(); // final publish with the drained totals
    obs::FlightRecorder::instance().dump();
    std::cerr << "stnet_serve " << kVersionString << ": drained "
              << (clean ? "cleanly" : "with force-closed sessions")
              << "\n"
              << server.healthJson() << std::endl;
    StreamServer::installSignalHandlers(nullptr);
    return clean ? 0 : 1;
}
