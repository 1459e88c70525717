#include "serve/transport.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fault/status.hpp"
#include "obs/obs.hpp"

namespace st::serve {

namespace {

/** Strip one trailing newline (LF or CRLF) in place. */
void
chomp(std::string &line)
{
    while (!line.empty() &&
           (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
}

/** Writer loop shared by both transports. */
void
writerLoop(const std::shared_ptr<Session> &session,
           const std::function<bool(const std::string &)> &put)
{
    while (true) {
        std::optional<std::string> line =
            session->nextOutput(std::chrono::milliseconds(100));
        if (line) {
            line->push_back('\n');
            if (!put(*line))
                break; // peer gone: reader side will notice EOF
        } else if (session->finished()) {
            break;
        }
    }
}

/**
 * One wire line arrived. Returns false when the stream is over
 * (`end` seen) so the reader can stop early instead of waiting for
 * EOF.
 */
bool
dispatchLine(StreamServer &server,
             const std::shared_ptr<Session> &session,
             std::string &line,
             const std::function<bool(const std::string &)> &put)
{
    chomp(line);
    if (line == "health") {
        put("health " + server.healthJson() + "\n");
        return true;
    }
    if (line == "reload") {
        // Same procedure as SIGHUP, but synchronous: the reply tells
        // the operator whether the swap published or was rolled back.
        const Status status = server.triggerReload();
        put("reload " +
            (status.isOk() ? std::string("ok") : status.str()) + "\n");
        return true;
    }
    session->feedLine(line, steadyNowMs());
    return line != "end";
}

/**
 * Poll-driven line reader over an fd: returns false on EOF/error,
 * filling @p line (newline stripped). @p should_stop is checked
 * between polls so a drain unblocks the reader within ~100 ms.
 *
 * A line longer than kMaxLineBytes comes back as its first
 * kMaxLineBytes + 1 bytes, which the session rejects; the rest of it,
 * through the next newline, is read and discarded. The buffer never
 * holds more than kMaxLineBytes plus one read.
 */
class FdLineReader
{
  public:
    explicit FdLineReader(int fd) : fd_(fd) {}

    bool
    next(std::string &line, const std::function<bool()> &should_stop)
    {
        while (true) {
            const size_t nl = buf_.find('\n', scanned_);
            if (nl != std::string::npos) {
                const bool keep = !discarding_;
                if (keep)
                    line.assign(buf_, 0, std::min(nl, kMaxLineBytes + 1));
                buf_.erase(0, nl + 1);
                scanned_ = 0;
                discarding_ = false;
                if (keep)
                    return true;
                continue;
            }
            scanned_ = buf_.size();
            if (discarding_) {
                buf_.clear();
                scanned_ = 0;
            } else if (buf_.size() > kMaxLineBytes) {
                line.assign(buf_, 0, kMaxLineBytes + 1);
                buf_.clear();
                scanned_ = 0;
                discarding_ = true;
                return true;
            }
            if (eof_) {
                if (buf_.empty())
                    return false;
                line = std::move(buf_);
                buf_.clear();
                return true;
            }
            if (should_stop())
                return false;
            struct pollfd pfd = {fd_, POLLIN, 0};
            const int rc = poll(&pfd, 1, 100);
            if (rc < 0 && errno != EINTR)
                return false;
            if (rc <= 0)
                continue;
            char chunk[4096];
            const ssize_t n = read(fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR || errno == EAGAIN)
                    continue;
                return false;
            }
            if (n == 0)
                eof_ = true;
            else
                buf_.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buf_;
    size_t scanned_ = 0;      //!< buf_ prefix known to hold no newline
    bool discarding_ = false; //!< inside an over-long line
    bool eof_ = false;
};

/** write(2) the whole buffer, retrying on EINTR/partial writes. */
bool
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

bool
runPipeSession(StreamServer &server, std::FILE *in, std::FILE *out)
{
    std::mutex out_mutex;
    const auto put = [&](const std::string &line) {
        std::lock_guard<std::mutex> lock(out_mutex);
        if (std::fputs(line.c_str(), out) < 0)
            return false;
        std::fflush(out);
        return true;
    };

    StreamServer::OpenResult open = server.openSession("pipe");
    if (!open.session) {
        put("busy retry_after_ms " +
            std::to_string(open.retryAfterMs) + " reason " +
            open.reason + "\n");
        return false;
    }
    // The session itself answers the hello line with stserve-ok.
    std::shared_ptr<Session> session = open.session;
    std::thread writer(
        [&] { writerLoop(session, put); });

    FdLineReader reader(fileno(in));
    std::string line;
    while (reader.next(line,
                       [&] { return server.draining(); })) {
        if (!dispatchLine(server, session, line, put))
            break;
    }
    session->endInput(steadyNowMs());
    writer.join();
    return session->finished();
}

TcpTransport::TcpTransport(StreamServer &server, uint16_t port)
    : server_(server)
{
    listenFd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw StatusError(Status(StatusCode::Internal,
                                 std::string("socket: ") +
                                     std::strerror(errno)));
    const int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (bind(listenFd_, reinterpret_cast<struct sockaddr *>(&addr),
             sizeof(addr)) < 0 ||
        listen(listenFd_, 64) < 0) {
        const std::string why = std::strerror(errno);
        close(listenFd_);
        listenFd_ = -1;
        throw StatusError(
            Status(StatusCode::Internal, "bind/listen: " + why));
    }
    socklen_t len = sizeof(addr);
    getsockname(listenFd_,
                reinterpret_cast<struct sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);
}

TcpTransport::~TcpTransport()
{
    stop();
    if (acceptThread_.joinable())
        acceptThread_.join();
    reapFinished(true);
    if (listenFd_ >= 0)
        close(listenFd_);
}

void
TcpTransport::stop()
{
    stop_.store(true, std::memory_order_release);
}

void
TcpTransport::reapFinished(bool join_all)
{
    std::vector<std::unique_ptr<Conn>> done;
    {
        std::lock_guard<std::mutex> lock(connsMutex_);
        if (join_all) {
            done.swap(conns_);
        } else {
            auto it = conns_.begin();
            while (it != conns_.end()) {
                if ((*it)->done.load(std::memory_order_acquire)) {
                    done.push_back(std::move(*it));
                    it = conns_.erase(it);
                } else {
                    ++it;
                }
            }
        }
    }
    for (auto &c : done)
        if (c->thread.joinable())
            c->thread.join();
}

void
TcpTransport::serveAsync()
{
    acceptThread_ = std::thread([this] { serve(); });
}

void
TcpTransport::serve()
{
    while (!stop_.load(std::memory_order_acquire) &&
           !server_.draining()) {
        // Join connections that finished since the last pass so the
        // thread set tracks live connections, not lifetime accepts.
        reapFinished(false);
        struct pollfd pfd = {listenFd_, POLLIN, 0};
        const int rc = poll(&pfd, 1, 100);
        if (rc < 0 && errno != EINTR)
            break;
        if (rc <= 0)
            continue;
        struct sockaddr_in peer = {};
        socklen_t len = sizeof(peer);
        const int fd = accept(
            listenFd_, reinterpret_cast<struct sockaddr *>(&peer),
            &len);
        if (fd < 0)
            continue;
        ST_OBS_ADD("serve.tcp.accepted", 1);
        auto conn = std::make_unique<Conn>();
        Conn *c = conn.get();
        c->thread = std::thread([this, fd, c] {
            handleConnection(fd);
            c->done.store(true, std::memory_order_release);
        });
        std::lock_guard<std::mutex> lock(connsMutex_);
        conns_.push_back(std::move(conn));
    }
    reapFinished(true);
}

void
TcpTransport::handleConnection(int fd)
{
    // Each reply line is one small segment. With Nagle's algorithm
    // on, a segment waits while an earlier one is unacknowledged, and
    // the client delays that ACK until its next request, so replies
    // would lock one request gap late. Every write is one whole line,
    // so sending each at once puts no partial line on the wire.
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::mutex out_mutex;
    const auto put = [&](const std::string &line) {
        std::lock_guard<std::mutex> lock(out_mutex);
        return writeAll(fd, line);
    };

    // Client key: the peer address without the ephemeral port, so a
    // reconnect storm from one host accumulates backoff.
    struct sockaddr_in peer = {};
    socklen_t len = sizeof(peer);
    getpeername(fd, reinterpret_cast<struct sockaddr *>(&peer),
                &len);
    char host[INET_ADDRSTRLEN] = "unknown";
    inet_ntop(AF_INET, &peer.sin_addr, host, sizeof(host));

    StreamServer::OpenResult open = server_.openSession(host);
    if (!open.session) {
        put("busy retry_after_ms " +
            std::to_string(open.retryAfterMs) + " reason " +
            open.reason + "\n");
        close(fd);
        return;
    }
    std::shared_ptr<Session> session = open.session;
    std::thread writer(
        [&] { writerLoop(session, put); });

    FdLineReader reader(fd);
    std::string line;
    while (reader.next(line, [&] {
               return stop_.load(std::memory_order_acquire) ||
                      server_.draining();
           })) {
        if (!dispatchLine(server_, session, line, put))
            break;
    }
    session->endInput(steadyNowMs());
    writer.join();
    shutdown(fd, SHUT_RDWR);
    close(fd);
}

} // namespace st::serve
