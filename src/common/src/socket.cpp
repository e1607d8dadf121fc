#include "hvc/common/socket.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "hvc/common/error.hpp"

namespace hvc {

namespace {

[[nodiscard]] sockaddr_un address_of(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    throw ConfigError("socket path too long: " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

[[nodiscard]] int new_unix_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw ConfigError(std::string("socket() failed: ") +
                      std::strerror(errno));
  }
  return fd;
}

/// Blocks until `fd` is readable; with wake_fd >= 0 also returns when
/// THAT becomes readable. Returns true when fd itself is ready.
[[nodiscard]] bool wait_readable(int fd, int wake_fd) {
  for (;;) {
    pollfd fds[2];
    fds[0] = {fd, POLLIN, 0};
    nfds_t count = 1;
    if (wake_fd >= 0) {
      fds[1] = {wake_fd, POLLIN, 0};
      count = 2;
    }
    const int rc = ::poll(fds, count, -1);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw ConfigError(std::string("poll() failed: ") +
                        std::strerror(errno));
    }
    // Shutdown wins over pending data: the daemon stops mid-stream.
    if (wake_fd >= 0 && (fds[1].revents & (POLLIN | POLLERR | POLLHUP))) {
      return false;
    }
    if (fds[0].revents != 0) {
      return true;
    }
  }
}

}  // namespace

UnixStream::~UnixStream() { close(); }

UnixStream::UnixStream(UnixStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      scanned_(std::exchange(other.scanned_, 0)),
      discarding_(std::exchange(other.discarding_, false)) {}

UnixStream& UnixStream::operator=(UnixStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    scanned_ = std::exchange(other.scanned_, 0);
    discarding_ = std::exchange(other.discarding_, false);
  }
  return *this;
}

UnixStream UnixStream::connect(const std::string& path) {
  const sockaddr_un address = address_of(path);
  const int fd = new_unix_socket();
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const int error = errno;
    ::close(fd);
    throw ConfigError("cannot connect to " + path + ": " +
                      std::strerror(error));
  }
  return UnixStream(fd);
}

bool UnixStream::send_all(const void* data, std::size_t bytes) {
  expects(valid(), "send on a closed stream");
  const char* cursor = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t sent = ::send(fd_, cursor, bytes, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return false;
      }
      throw ConfigError(std::string("send() failed: ") +
                        std::strerror(errno));
    }
    cursor += sent;
    bytes -= static_cast<std::size_t>(sent);
  }
  return true;
}

bool UnixStream::send_line(const std::string& line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed += line;
  framed += '\n';
  return send_all(framed.data(), framed.size());
}

UnixStream::ReadStatus UnixStream::read_line(std::string& out, int wake_fd) {
  expects(valid(), "read on a closed stream");
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      const bool was_discarding = discarding_;
      const bool fits = newline <= kMaxLineBytes;
      if (!was_discarding && fits) {
        out.assign(buffer_, 0, newline);
      }
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      discarding_ = false;
      if (!was_discarding) {
        return fits ? ReadStatus::kLine : ReadStatus::kTooLong;
      }
      continue;  // the tail of a line already reported kTooLong
    }
    if (discarding_) {
      buffer_.clear();
    } else if (buffer_.size() > kMaxLineBytes) {
      buffer_.clear();
      scanned_ = 0;
      discarding_ = true;
      return ReadStatus::kTooLong;
    }
    scanned_ = buffer_.size();
    if (!wait_readable(fd_, wake_fd)) {
      return ReadStatus::kInterrupted;
    }
    char chunk[4096];
    const ssize_t received = ::recv(fd_, chunk, sizeof chunk, 0);
    if (received < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == ECONNRESET) {
        return ReadStatus::kEof;
      }
      throw ConfigError(std::string("recv() failed: ") +
                        std::strerror(errno));
    }
    if (received == 0) {
      return ReadStatus::kEof;
    }
    buffer_.append(chunk, static_cast<std::size_t>(received));
  }
}

void UnixStream::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
  scanned_ = 0;
  discarding_ = false;
}

UnixListener::~UnixListener() { close(); }

UnixListener::UnixListener(UnixListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {
  other.path_.clear();
}

UnixListener& UnixListener::operator=(UnixListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

UnixListener UnixListener::bind(const std::string& path) {
  const sockaddr_un address = address_of(path);
  int fd = new_unix_socket();
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    const int error = errno;
    ::close(fd);
    if (error != EADDRINUSE) {
      throw ConfigError("cannot bind " + path + ": " +
                        std::strerror(error));
    }
    // The path exists. A live daemon accepts connections on it; a stale
    // file from a crashed one refuses them and is safe to replace.
    try {
      UnixStream probe = UnixStream::connect(path);
      throw ConfigError("another daemon is already listening on " + path);
    } catch (const ConfigError& probe_error) {
      if (std::string(probe_error.what()).find("already listening") !=
          std::string::npos) {
        throw;
      }
    }
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      throw ConfigError("cannot remove stale socket " + path + ": " +
                        std::strerror(errno));
    }
    fd = new_unix_socket();
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0) {
      const int rebind_error = errno;
      ::close(fd);
      throw ConfigError("cannot bind " + path + ": " +
                        std::strerror(rebind_error));
    }
  }
  if (::listen(fd, 16) != 0) {
    const int error = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw ConfigError("cannot listen on " + path + ": " +
                      std::strerror(error));
  }
  UnixListener listener;
  listener.fd_ = fd;
  listener.path_ = path;
  return listener;
}

std::optional<UnixStream> UnixListener::accept(int wake_fd) {
  expects(valid(), "accept on a closed listener");
  for (;;) {
    if (!wait_readable(fd_, wake_fd)) {
      return std::nullopt;
    }
    const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      throw ConfigError(std::string("accept() failed: ") +
                        std::strerror(errno));
    }
    return UnixStream(client);
  }
}

void UnixListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (!path_.empty()) {
      ::unlink(path_.c_str());
      path_.clear();
    }
  }
}

WakePipe::WakePipe() {
  if (::pipe2(fds_, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw ConfigError(std::string("pipe2() failed: ") +
                      std::strerror(errno));
  }
}

WakePipe::~WakePipe() {
  for (const int fd : fds_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

bool WakePipe::signalled() const noexcept {
  pollfd probe = {fds_[0], POLLIN, 0};
  return ::poll(&probe, 1, 0) > 0;
}

void WakePipe::signal() noexcept {
  const char byte = 1;
  // One byte is plenty: readers never drain the pipe, they only poll it.
  [[maybe_unused]] const ssize_t rc = ::write(fds_[1], &byte, 1);
}

}  // namespace hvc
