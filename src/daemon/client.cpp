#include "daemon/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "data/cache.h"

namespace wefr::daemon {

namespace {

/// recv() that retries without sleeping until `spin_until`, then blocks.
ssize_t recv_spin_then_block(int fd, char* buf, std::size_t len,
                             std::chrono::steady_clock::time_point spin_until) {
  while (std::chrono::steady_clock::now() < spin_until) {
    const ssize_t n = ::recv(fd, buf, len, MSG_DONTWAIT);
    if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return n;
  }
  return ::recv(fd, buf, len, 0);
}

}  // namespace

Client::Client(Options options) : opt_(std::move(options)) {}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  recv_buf_.clear();
}

void Client::drop_connection_for_test() { close(); }

bool Client::dial(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (opt_.socket_path.empty()) return fail("no socket path to dial");
  sockaddr_un addr{};
  if (opt_.socket_path.size() >= sizeof(addr.sun_path))
    return fail("socket path too long: " + opt_.socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return fail(std::string("socket: ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return fail("connect " + opt_.socket_path + ": " + std::strerror(errno));
  }
  close();
  fd_ = fd;
  return true;
}

bool Client::send_all(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::recv_frame(std::uint32_t& seq, std::string& payload, std::string* why) {
  // Called right after the request went out: a quick reply arrives
  // while this thread is still awake.
  const auto spin_until = std::chrono::steady_clock::now() + spin_window();
  for (;;) {
    std::size_t total = 0;
    const auto peek = data::peek_daemon_frame(recv_buf_, total, why);
    if (peek == data::DaemonFramePeek::kBad) return false;
    if (peek == data::DaemonFramePeek::kFrame && recv_buf_.size() >= total) {
      const bool ok =
          data::decode_daemon_frame(std::string_view(recv_buf_).substr(0, total),
                                    data::DaemonFrameKind::kResponse, seq, payload, why);
      recv_buf_.erase(0, total);
      return ok;
    }
    char buf[65536];
    const ssize_t n = recv_spin_then_block(fd_, buf, sizeof(buf), spin_until);
    if (n == 0) {
      if (why != nullptr) *why = "connection closed by server";
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (why != nullptr) *why = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    recv_buf_.append(buf, static_cast<std::size_t>(n));
  }
}

bool Client::transact(const Msg& req, Msg& reply, std::string* why) {
  if (fd_ < 0) {
    if (why != nullptr) *why = "not connected";
    return false;
  }
  const std::uint32_t seq = next_seq_++;
  if (!send_all(data::encode_daemon_frame(data::DaemonFrameKind::kRequest, seq,
                                          encode_message(req)))) {
    if (why != nullptr) *why = std::string("send: ") + std::strerror(errno);
    return false;
  }
  std::uint32_t reply_seq = 0;
  std::string payload;
  if (!recv_frame(reply_seq, payload, why)) return false;
  if (reply_seq != seq) {
    if (why != nullptr) *why = "sequence number mismatch in reply";
    return false;
  }
  return decode_message(payload, reply, why);
}

bool Client::handshake(std::string* error) {
  Msg hello;
  hello.type = MsgType::kHello;
  hello.client_name = opt_.client_name;
  hello.model_name = opt_.model_name;
  hello.feature_names = opt_.feature_names;
  Msg reply;
  std::string why;
  if (!transact(hello, reply, &why)) {
    close();
    if (error != nullptr) *error = "hello failed: " + why;
    return false;
  }
  if (reply.type == MsgType::kError) {
    close();
    if (error != nullptr) *error = "hello refused: " + reply.text;
    return false;
  }
  if (reply.type != MsgType::kHelloOk) {
    close();
    if (error != nullptr) *error = "unexpected hello reply";
    return false;
  }
  hello_reply_ = std::move(reply);
  return true;
}

bool Client::connect(std::string* error) {
  return dial(error) && handshake(error);
}

bool Client::adopt_fd(int fd, std::string* error) {
  close();
  fd_ = fd;
  return handshake(error);
}

bool Client::call(const Msg& req, Msg& reply, std::string* error) {
  std::string why;
  for (int attempt = 0; attempt <= opt_.max_retries; ++attempt) {
    if (attempt > 0) {
      // Transport died mid-request. Redial + re-hello, then resend —
      // the engine is resident server-side, so nothing is lost; a
      // request the server DID apply before the cut comes back as an
      // application error (e.g. non-contiguous day), not a retry loop.
      if (opt_.socket_path.empty()) break;
      std::string rerr;
      if (!dial(&rerr) || !handshake(&rerr)) {
        why += "; reconnect failed: " + rerr;
        break;
      }
      ++reconnects_;
    }
    if (fd_ < 0 && !opt_.socket_path.empty()) {
      std::string rerr;
      if (!dial(&rerr) || !handshake(&rerr)) {
        why = "reconnect failed: " + rerr;
        continue;
      }
      ++reconnects_;
    }
    if (transact(req, reply, &why)) return true;
    close();
  }
  if (error != nullptr) *error = why;
  return false;
}

bool Client::append_day(const std::string& drive_id, int day,
                        const std::vector<double>& values, int fail_day, Msg& reply,
                        std::string* error) {
  Msg req;
  req.type = MsgType::kAppendDay;
  req.drive_id = drive_id;
  req.day = day;
  req.fail_day = fail_day;
  req.values = values;
  return call(req, reply, error);
}

bool Client::score_drive(const std::string& drive_id, Msg& reply, std::string* error) {
  Msg req;
  req.type = MsgType::kScoreDrive;
  req.drive_id = drive_id;
  return call(req, reply, error);
}

bool Client::report(Msg& reply, std::string* error) {
  Msg req;
  req.type = MsgType::kReport;
  return call(req, reply, error);
}

bool Client::save_snapshot(Msg& reply, std::string* error) {
  Msg req;
  req.type = MsgType::kSaveSnapshot;
  return call(req, reply, error);
}

bool Client::shutdown_server(Msg& reply, std::string* error) {
  Msg req;
  req.type = MsgType::kShutdown;
  return call(req, reply, error);
}

}  // namespace wefr::daemon
