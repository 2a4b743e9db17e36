#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

namespace kadsim::serve {

namespace {

/// Writes all of `data`, retrying partial writes and EINTR.
bool write_all(int fd, const void* data, std::size_t size) {
    const char* p = static_cast<const char*>(data);
    while (size > 0) {
        const ssize_t n = ::write(fd, p, size);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

enum class ReadAll { kOk, kEof, kError };

/// Reads exactly `size` bytes, retrying EINTR. kEof covers both a clean
/// close before the first byte and a mid-buffer close — the caller
/// distinguishes them by how much it already consumed.
ReadAll read_all(int fd, void* data, std::size_t size) {
    char* p = static_cast<char*>(data);
    while (size > 0) {
        const ssize_t n = ::read(fd, p, size);
        if (n < 0) {
            if (errno == EINTR) continue;
            return ReadAll::kError;
        }
        if (n == 0) return ReadAll::kEof;
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return ReadAll::kOk;
}

}  // namespace

FrameResult write_frame(int fd, std::string_view payload) {
    if (payload.size() > kMaxFrameBytes) return FrameResult::kTooLarge;
    const auto len = static_cast<std::uint32_t>(payload.size());
    std::uint8_t prefix[4] = {
        static_cast<std::uint8_t>(len & 0xFF),
        static_cast<std::uint8_t>((len >> 8) & 0xFF),
        static_cast<std::uint8_t>((len >> 16) & 0xFF),
        static_cast<std::uint8_t>((len >> 24) & 0xFF),
    };
    if (!write_all(fd, prefix, sizeof prefix)) return FrameResult::kError;
    if (!payload.empty() && !write_all(fd, payload.data(), payload.size())) {
        return FrameResult::kError;
    }
    return FrameResult::kOk;
}

FrameResult read_frame(int fd, std::string& out, std::size_t max_payload) {
    std::uint8_t prefix[4];
    // EOF on the very first byte of the prefix is an orderly close; reading
    // only part of it means the peer died mid-frame.
    {
        const ssize_t n = ::read(fd, prefix, 1);
        if (n < 0 && errno == EINTR) return read_frame(fd, out, max_payload);
        if (n < 0) return FrameResult::kError;
        if (n == 0) return FrameResult::kClosed;
    }
    switch (read_all(fd, prefix + 1, 3)) {
        case ReadAll::kOk: break;
        case ReadAll::kEof: return FrameResult::kTruncated;
        case ReadAll::kError: return FrameResult::kError;
    }
    const std::size_t len = static_cast<std::size_t>(prefix[0]) |
                            (static_cast<std::size_t>(prefix[1]) << 8) |
                            (static_cast<std::size_t>(prefix[2]) << 16) |
                            (static_cast<std::size_t>(prefix[3]) << 24);
    if (len > max_payload) return FrameResult::kTooLarge;
    // The declared length is the peer's claim, not bytes in hand: grow the
    // buffer as the payload arrives, so memory tracks what was received
    // (at most twice that, plus one chunk) instead of what was promised.
    out.clear();
    while (out.size() < len) {
        const std::size_t have = out.size();
        const std::size_t step = std::min(len - have, std::max(kFrameReadChunk, have));
        out.resize(have + step);
        switch (read_all(fd, out.data() + have, step)) {
            case ReadAll::kOk: break;
            case ReadAll::kEof: return FrameResult::kTruncated;
            case ReadAll::kError: return FrameResult::kError;
        }
    }
    return FrameResult::kOk;
}

namespace {

int unix_socket(const std::string& socket_path, sockaddr_un& addr,
                std::string& error) {
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        error = "socket path too long: " + socket_path;
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket(): ") + std::strerror(errno);
        return -1;
    }
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    return fd;
}

}  // namespace

int connect_unix(const std::string& socket_path, std::string& error) {
    sockaddr_un addr{};
    const int fd = unix_socket(socket_path, addr, error);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        error = "connect(" + socket_path + "): " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

int listen_unix(const std::string& socket_path, std::string& error) {
    sockaddr_un addr{};
    const int fd = unix_socket(socket_path, addr, error);
    if (fd < 0) return -1;
    // A previous daemon's socket file would make bind() fail with EADDRINUSE
    // even though nobody is listening; the unlink is safe because a daemon
    // owns its socket path by contract.
    ::unlink(socket_path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        error = "bind(" + socket_path + "): " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 16) != 0) {
        error = "listen(" + socket_path + "): " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

}  // namespace kadsim::serve
