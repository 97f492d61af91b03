#include "wire.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

std::unique_ptr<WireClient> WireClient::Connect(const std::string& path,
                                                std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return nullptr;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<WireClient>(new WireClient(fd));
}

WireClient::~WireClient() { ::close(fd_); }

bool WireClient::ReadLine(std::string* line) {
  while (true) {
    const size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return true;
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

bool WireClient::RoundTrip(const std::string& statement, Reply* reply) {
  std::string out = statement;
  out.push_back('\n');
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  *reply = Reply();
  std::string line;
  while (ReadLine(&line)) {
    if (line.rfind("-- ok", 0) == 0) {
      reply->ok = true;
      const char* rt = std::strstr(line.c_str(), "runtime_ms=");
      const char* qw = std::strstr(line.c_str(), "queue_wait_ms=");
      if (rt != nullptr) reply->runtime_ms = std::strtod(rt + 11, nullptr);
      if (qw != nullptr) reply->queue_wait_ms = std::strtod(qw + 14, nullptr);
      return true;
    }
    if (line.rfind("-- error", 0) == 0) {
      reply->error = line;
      return true;
    }
    reply->first_col.push_back(std::strtoll(line.c_str(), nullptr, 10));
  }
  return false;
}

}  // namespace perfbench
