// A blocking client for the mural server's line protocol (see
// src/server/server.h): one statement per line out, data lines and one
// "-- ok ..." or "-- error ..." terminator back.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Reply {
  bool ok = false;
  std::string error;               // the terminator text on failure
  std::vector<int64_t> first_col;  // first column of each data line
  double runtime_ms = 0;
  double queue_wait_ms = 0;
};

class WireClient {
 public:
  /// Connects to an AF_UNIX socket; null with `*error` set on failure.
  static std::unique_ptr<WireClient> Connect(const std::string& path,
                                             std::string* error);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Sends one statement and reads its whole reply.  False when the
  /// connection is lost (the reply is then not filled).
  bool RoundTrip(const std::string& statement, Reply* reply);

 private:
  explicit WireClient(int fd) : fd_(fd) {}
  bool ReadLine(std::string* line);

  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace perfbench
