// Wire protocol of the resilience daemon: length-prefixed frames over a
// local stream socket.
//
// Each frame is a u32 little-endian byte count followed by exactly that many
// payload bytes. Requests are one text line (e.g. "KAPPA latest"), except
// INGEST whose payload carries raw snapshot bytes after the first newline;
// responses start with "OK" or "ERR". Framing keeps binary snapshot payloads
// and multi-line counter responses unambiguous without any in-band escaping.
//
// The read side is defensive: a short read, closed peer, or a declared
// length above `max_payload` yields a clean failure, never a blocked daemon
// or an unbounded allocation.
#ifndef KADSIM_SERVE_PROTOCOL_H
#define KADSIM_SERVE_PROTOCOL_H

#include <cstddef>
#include <string>
#include <string_view>

namespace kadsim::serve {

/// Frames larger than this are protocol errors (a garbage or hostile length
/// prefix must not drive a multi-gigabyte resize). Generous enough for a
/// million-node binary snapshot ingest.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

/// read_frame's first buffer step. The payload buffer grows only as bytes
/// arrive — by this much, then doubling — so a length prefix alone never
/// allocates more than one chunk, while a frame up to this size is one read.
inline constexpr std::size_t kFrameReadChunk = std::size_t{1} << 16;

enum class FrameResult {
    kOk,
    kClosed,    ///< orderly EOF on the frame boundary
    kTruncated, ///< peer vanished mid-frame
    kTooLarge,  ///< declared length exceeds max_payload
    kError,     ///< read()/write() failure (errno-level)
};

/// Writes one frame (length prefix + payload), looping over partial writes.
[[nodiscard]] FrameResult write_frame(int fd, std::string_view payload);

/// Reads one frame into `out` (replaced, not appended). kClosed only when
/// EOF lands exactly between frames.
[[nodiscard]] FrameResult read_frame(int fd, std::string& out,
                                     std::size_t max_payload = kMaxFrameBytes);

/// Client convenience: connect to a daemon's AF_UNIX socket. Returns the
/// connected fd, or -1 with a diagnostic in `error`.
[[nodiscard]] int connect_unix(const std::string& socket_path, std::string& error);

/// Server side: bind + listen on `socket_path`, unlinking any stale socket
/// file first. Returns the listening fd, or -1 with a diagnostic in `error`.
[[nodiscard]] int listen_unix(const std::string& socket_path, std::string& error);

}  // namespace kadsim::serve

#endif  // KADSIM_SERVE_PROTOCOL_H
