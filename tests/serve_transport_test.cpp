/**
 * @file
 * Tier-1 tests for the transports (serve/transport.cpp), against an
 * in-process StreamServer: a whole TCP session checked against offline
 * TnnNetwork::processBatch, TCP_NODELAY on the accepted socket, the
 * busy refusal at maxSessions, and the wire-line length bound through
 * the pipe transport.
 *
 * Nothing here sleeps: reads wait in poll(2), whose timeout only
 * guards against a hang and fails the test when it fires.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/config.hpp"
#include "serve/model.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "tnn/tnn_network.hpp"
#include "util/rng.hpp"

namespace st::serve {
namespace {

/** How long a read may wait before the test calls it a hang. */
constexpr int kGuardMs = 20000;

TnnNetwork
makeNet(size_t inputs)
{
    TnnNetwork net;
    ColumnParams p;
    p.numInputs = inputs;
    p.numNeurons = inputs;
    p.wtaK = 1;
    p.seed = 5;
    net.addLayer(p);
    return net;
}

void
writeAll(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        ASSERT_GT(n, 0) << "write: " << std::strerror(errno);
        off += static_cast<size_t>(n);
    }
}

/** Whole lines read from an fd, each read waiting in poll(2). */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    /** Next line without its newline; nullopt at EOF or on a hang
     *  (then timedOut() is true). */
    std::optional<std::string>
    next()
    {
        while (true) {
            const size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            struct pollfd pfd = {fd_, POLLIN, 0};
            const int rc = poll(&pfd, 1, kGuardMs);
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc <= 0) {
                timedOut_ = true;
                return std::nullopt;
            }
            char chunk[4096];
            const ssize_t n = read(fd_, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return std::nullopt;
            buf_.append(chunk, static_cast<size_t>(n));
        }
    }

    /** Every line up to EOF. */
    std::vector<std::string>
    rest()
    {
        std::vector<std::string> lines;
        while (std::optional<std::string> line = next())
            lines.push_back(std::move(*line));
        return lines;
    }

    bool timedOut() const { return timedOut_; }

  private:
    int fd_;
    std::string buf_;
    bool timedOut_ = false;
};

/** A loopback TCP client of a TcpTransport. */
class Client
{
  public:
    explicit Client(uint16_t port)
        : fd_(socket(AF_INET, SOCK_STREAM, 0)), lines_(fd_)
    {
        struct sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (fd_ >= 0)
            connected_ = connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof(addr)) == 0;
    }
    ~Client()
    {
        if (fd_ >= 0)
            close(fd_);
    }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool connected() const { return connected_; }
    int fd() const { return fd_; }
    void send(const std::string &bytes) { writeAll(fd_, bytes); }
    LineReader &lines() { return lines_; }

  private:
    int fd_;
    LineReader lines_;
    bool connected_ = false;
};

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** A started server with a TCP transport on an ephemeral port. */
struct TcpFixture
{
    explicit TcpFixture(const ServeConfig &config)
        : net(makeNet(4)),
          server(std::make_unique<TnnServeModel>(net), config),
          transport(server, 0)
    {
        server.start();
        transport.serveAsync();
    }
    ~TcpFixture()
    {
        transport.stop();
        server.requestStop();
        server.waitDrained();
    }

    TnnNetwork net;
    StreamServer server;
    TcpTransport transport;
};

ServeConfig
testConfig()
{
    ServeConfig config;
    config.window = 8;
    // Sanitizer builds run slowly; no volley may miss its deadline.
    config.deadlineMs = 60000;
    return config;
}

/** True when @p a and @p b name the same IPv4 endpoint. */
bool
sameEndpoint(const sockaddr_in &a, const sockaddr_in &b)
{
    return a.sin_family == AF_INET && b.sin_family == AF_INET &&
           a.sin_addr.s_addr == b.sin_addr.s_addr &&
           a.sin_port == b.sin_port;
}

/**
 * The server side of @p client's connection: the process fd whose
 * local address is the client's peer and whose peer is the client's
 * local address. -1 when there is none.
 */
int
acceptedFdOf(const Client &client)
{
    sockaddr_in local = {}, peer = {};
    socklen_t len = sizeof(local);
    getsockname(client.fd(), reinterpret_cast<sockaddr *>(&local),
                &len);
    len = sizeof(peer);
    getpeername(client.fd(), reinterpret_cast<sockaddr *>(&peer),
                &len);
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        const int fd = std::atoi(entry.path().filename().c_str());
        sockaddr_in fd_local = {}, fd_peer = {};
        len = sizeof(fd_local);
        if (getsockname(fd, reinterpret_cast<sockaddr *>(&fd_local),
                        &len) != 0)
            continue;
        len = sizeof(fd_peer);
        if (getpeername(fd, reinterpret_cast<sockaddr *>(&fd_peer),
                        &len) != 0)
            continue;
        if (sameEndpoint(fd_local, peer) && sameEndpoint(fd_peer, local))
            return fd;
    }
    return -1;
}

TEST(TcpTransport, FullSessionMatchesOfflineProcessBatch)
{
    TcpFixture fx(testConfig());
    Client client(fx.transport.port());
    ASSERT_TRUE(client.connected());

    client.send("stserve 1\n");
    const std::optional<std::string> ok = client.lines().next();
    ASSERT_TRUE(ok.has_value());
    EXPECT_TRUE(startsWith(*ok, "stserve-ok")) << *ok;
    client.send("addresses 4 window 8\n");

    // 32 windows of 1-3 events on distinct addresses, each window and
    // its flush in one write, framed here as the session frames them.
    constexpr size_t kVolleys = 32;
    Rng rng(14);
    std::vector<Volley> framed;
    for (size_t w = 0; w < kVolleys; ++w) {
        Volley volley(4, INF);
        std::string bytes;
        uint64_t t = 8 * w;
        const size_t events = 1 + rng.below(3);
        std::vector<uint64_t> addresses = {0, 1, 2, 3};
        rng.shuffle(addresses);
        for (size_t e = 0; e < events; ++e) {
            t += rng.below(3);
            volley[addresses[e]] = Time(t - 8 * w);
            bytes += std::to_string(t) + " " +
                     std::to_string(addresses[e]) + "\n";
        }
        client.send(bytes + "flush\n");
        framed.push_back(volley);
    }
    client.send("health\n");
    client.send("end\n");

    const std::vector<std::string> lines = client.lines().rest();
    ASSERT_FALSE(client.lines().timedOut());
    const std::vector<Volley> expected = fx.net.processBatch(framed, 1);

    size_t volleys = 0, health = 0;
    for (const std::string &line : lines) {
        if (startsWith(line, "health ")) {
            ++health;
            EXPECT_NE(line.find("\"server\""), std::string::npos);
        } else if (startsWith(line, "volley ")) {
            const size_t space = line.find(' ', 7);
            ASSERT_NE(space, std::string::npos) << line;
            const size_t seq = std::stoul(line.substr(7, space - 7));
            ASSERT_EQ(seq, volleys) << "out of order: " << line;
            EXPECT_EQ(line.substr(space + 1), wireVolley(expected[seq]))
                << "seq " << seq;
            ++volleys;
        } else {
            EXPECT_TRUE(startsWith(line, "end ")) << line;
        }
    }
    EXPECT_EQ(volleys, kVolleys);
    EXPECT_EQ(health, 1u);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.back(), "end volleys 32 drops 0");
}

TEST(TcpTransport, AcceptedSocketsSetNoDelay)
{
    TcpFixture fx(testConfig());
    Client client(fx.transport.port());
    ASSERT_TRUE(client.connected());
    client.send("stserve 1\n");
    const std::optional<std::string> ok = client.lines().next();
    ASSERT_TRUE(ok.has_value());
    ASSERT_TRUE(startsWith(*ok, "stserve-ok")) << *ok;

    // The session answered, so the server holds its accepted socket.
    const int fd = acceptedFdOf(client);
    ASSERT_GE(fd, 0) << "no server-side socket for this connection";
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
              0);
    EXPECT_EQ(nodelay, 1);
    client.send("end\n");
    client.lines().rest();
}

TEST(TcpTransport, RefusesPastMaxSessionsWithOneBusyLine)
{
    ServeConfig config = testConfig();
    config.maxSessions = 1;
    TcpFixture fx(config);

    Client first(fx.transport.port());
    ASSERT_TRUE(first.connected());
    first.send("stserve 1\n");
    const std::optional<std::string> ok = first.lines().next();
    ASSERT_TRUE(ok.has_value());
    ASSERT_TRUE(startsWith(*ok, "stserve-ok")) << *ok;

    Client second(fx.transport.port());
    ASSERT_TRUE(second.connected());
    const std::vector<std::string> refused = second.lines().rest();
    EXPECT_FALSE(second.lines().timedOut()) << "no EOF after busy";
    ASSERT_EQ(refused.size(), 1u);
    EXPECT_TRUE(startsWith(refused[0], "busy retry_after_ms "))
        << refused[0];

    first.send("end\n");
    const std::vector<std::string> rest = first.lines().rest();
    ASSERT_FALSE(rest.empty());
    EXPECT_EQ(rest.back(), "end volleys 0 drops 0");
}

TEST(PipeTransport, OverlongLineQuarantinesAndEndStillCloses)
{
    TnnNetwork net = makeNet(4);
    StreamServer server(std::make_unique<TnnServeModel>(net),
                        testConfig());
    server.start();

    int in[2], out[2];
    ASSERT_EQ(pipe(in), 0);
    ASSERT_EQ(pipe(out), 0);
    std::FILE *in_r = fdopen(in[0], "r");
    std::FILE *out_w = fdopen(out[1], "w");
    ASSERT_TRUE(in_r && out_w);
    std::thread session([&] {
        runPipeSession(server, in_r, out_w);
        std::fclose(out_w);
    });
    LineReader lines(out[0]);

    // The checks run in a lambda so a failed ASSERT still reaches the
    // EOF and join below.
    [&] {
        writeAll(in[1], "stserve 1\naddresses 4 window 8\n");
        const std::optional<std::string> ok = lines.next();
        ASSERT_TRUE(ok.has_value());
        EXPECT_TRUE(startsWith(*ok, "stserve-ok")) << *ok;

        // 64 KiB and no newline: the err line must arrive while the
        // line is still open.
        writeAll(in[1], std::string(64 * 1024, 'x'));
        const std::optional<std::string> err = lines.next();
        ASSERT_TRUE(err.has_value()) << "no err before the newline";
        EXPECT_TRUE(startsWith(*err, "err invalid_argument")) << *err;
        EXPECT_NE(err->find(std::to_string(kMaxLineBytes) + " bytes"),
                  std::string::npos)
            << *err;
        EXPECT_NE(err->find("[line 3]"), std::string::npos) << *err;

        writeAll(in[1], "\nend\n");
        const std::optional<std::string> end = lines.next();
        ASSERT_TRUE(end.has_value());
        EXPECT_EQ(*end, "end volleys 0 drops 0");
    }();
    close(in[1]);
    session.join();
    std::fclose(in_r);
    close(out[0]);
    server.requestStop();
    EXPECT_TRUE(server.waitDrained());
}

} // namespace
} // namespace st::serve
