// EINTR-safe file-descriptor I/O for the serve layer's sockets.
//
// POSIX send()/recv() return -1 with errno == EINTR when a signal lands
// mid-call; treating that as a closed connection (or silently dropping the
// unsent tail of a short write) turns every harmless SIGCHLD/profiling
// signal into a protocol failure. These helpers retry on EINTR and loop
// short writes to completion, so callers only ever see real EOF or real
// errors. Sends use MSG_NOSIGNAL: a peer that closed mid-write must surface
// as an error return, not a process-killing SIGPIPE.
#pragma once

#include <cstddef>

#include <sys/types.h>

namespace nobl::io {

/// Write all `len` bytes to `fd`, retrying EINTR and short writes.
/// Returns true on success, false on any real error (errno preserved) or
/// when the peer closed the connection.
[[nodiscard]] bool send_all(int fd, const void* data, std::size_t len);

/// One recv() that retries EINTR. Returns > 0 (bytes read), 0 (orderly
/// EOF), or -1 (real error, errno preserved — never EINTR).
[[nodiscard]] ssize_t recv_some(int fd, void* data, std::size_t len);

/// Read exactly `len` bytes, retrying EINTR and short reads. Returns true
/// on success; false on EOF-before-len or a real error (errno preserved,
/// errno == 0 distinguishes clean EOF).
[[nodiscard]] bool recv_exact(int fd, void* data, std::size_t len);

}  // namespace nobl::io
