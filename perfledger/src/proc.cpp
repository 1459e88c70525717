#include "proc.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace ledger {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace {

std::string
procPath(pid_t pid, const char *leaf)
{
    return "/proc/" + (pid == 0 ? std::string("self")
                                : std::to_string(pid)) +
           "/" + leaf;
}

uint64_t
clockNs(clockid_t clock)
{
    struct timespec ts = {};
    clock_gettime(clock, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(ts.tv_nsec);
}

} // namespace

uint64_t
processCpuNs(pid_t pid)
{
    // Per-thread schedstat run time is in nanoseconds, where the
    // process-wide utime/stime count 10 ms clock ticks. Threads that
    // already exited are not counted; the daemon's threads live for
    // the whole measured window.
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &task :
         std::filesystem::directory_iterator(procPath(pid, "task"), ec)) {
        std::ifstream in(task.path() / "schedstat");
        uint64_t ns = 0;
        if (in >> ns)
            total += ns;
    }
    return total;
}

uint64_t
procStatusField(pid_t pid, const char *field)
{
    std::ifstream in(procPath(pid, "status"));
    std::string line;
    const size_t len = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':')
            return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
    return 0;
}

uint64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

uint64_t
selfCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

ChildProcess::ChildProcess(const std::vector<std::string> &argv)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error(std::string("pipe: ") +
                                 std::strerror(errno));
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
        close(fds[0]);
        close(fds[1]);
        throw std::runtime_error(std::string("fork: ") +
                                 std::strerror(errno));
    }
    if (pid_ == 0) {
        // Only async-signal-safe calls between fork and exec.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        const int null = open("/dev/null", O_RDWR);
        dup2(null, STDIN_FILENO);
        dup2(null, STDOUT_FILENO);
        dup2(fds[1], STDERR_FILENO);
        execv(args[0], args.data());
        _exit(127);
    }
    close(fds[1]);
    errFd_ = fds[0];
    fcntl(errFd_, F_SETFL, fcntl(errFd_, F_GETFL) | O_NONBLOCK);
}

ChildProcess::~ChildProcess()
{
    if (pid_ > 0 && !reaped()) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status_, 0);
    }
    if (errFd_ >= 0)
        close(errFd_);
}

void
ChildProcess::drainStderr()
{
    char buf[4096];
    while (true) {
        const ssize_t n = read(errFd_, buf, sizeof(buf));
        if (n > 0) {
            log_.append(buf, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return; // EAGAIN or EOF
    }
}

bool
ChildProcess::reaped()
{
    if (pid_ <= 0)
        return true;
    if (waitpid(pid_, &status_, WNOHANG) == pid_) {
        pid_ = -1;
        return true;
    }
    return false;
}

uint16_t
ChildProcess::waitListening(double timeout_s)
{
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(timeout_s * 1e9);
    while (nowNs() < deadline) {
        drainStderr();
        const size_t at = log_.find("listening ");
        if (at != std::string::npos &&
            log_.find('\n', at) != std::string::npos)
            return static_cast<uint16_t>(
                std::strtoul(log_.c_str() + at + 10, nullptr, 10));
        if (reaped())
            return 0;
        struct pollfd pfd = {errFd_, POLLIN, 0};
        poll(&pfd, 1, 5);
    }
    return 0;
}

bool
ChildProcess::terminate(double timeout_s)
{
    if (pid_ > 0)
        kill(pid_, SIGTERM);
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(timeout_s * 1e9);
    while (!reaped() && nowNs() < deadline) {
        drainStderr();
        struct pollfd pfd = {errFd_, POLLIN, 0};
        poll(&pfd, 1, 10);
    }
    if (!reaped()) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status_, 0);
        pid_ = -1;
        drainStderr();
        return false;
    }
    drainStderr();
    return WIFEXITED(status_) && WEXITSTATUS(status_) == 0 &&
           log_.find("drained cleanly") != std::string::npos;
}

int
dialLoopback(uint16_t port)
{
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                sizeof(addr)) < 0) {
        close(fd);
        return -1;
    }
    // The generator's own sockets must not add Nagle delay to what is
    // measured; the daemon's side is left exactly as it ships.
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
readUntilPrefix(int fd, const std::string &prefix, double timeout_s)
{
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(timeout_s * 1e9);
    std::string buf;
    while (nowNs() < deadline) {
        size_t start = 0;
        for (size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
             start = nl + 1) {
            if (buf.compare(start, prefix.size(), prefix) == 0)
                return true;
        }
        buf.erase(0, start);
        struct pollfd pfd = {fd, POLLIN, 0};
        if (poll(&pfd, 1, 10) <= 0)
            continue;
        char chunk[4096];
        const ssize_t n = read(fd, chunk, sizeof(chunk));
        if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN))
            return false;
        if (n > 0)
            buf.append(chunk, static_cast<size_t>(n));
    }
    return false;
}

bool
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace ledger
