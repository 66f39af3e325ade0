#include "daemon/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "data/cache.h"
#include "obs/log.h"

namespace wefr::daemon {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

Server::Server(Engine& engine, ServerOptions options, obs::Logger* log)
    : engine_(engine), opt_(std::move(options)), log_(log) {}

Server::~Server() {
  for (auto& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    if (!opt_.socket_path.empty()) ::unlink(opt_.socket_path.c_str());
  }
}

bool Server::listen_unix(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (opt_.socket_path.empty()) return fail("no socket path configured");
  sockaddr_un addr{};
  if (opt_.socket_path.size() >= sizeof(addr.sun_path))
    return fail("socket path too long: " + opt_.socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return fail(std::string("socket: ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(opt_.socket_path.c_str());  // stale socket from a crashed run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return fail("bind " + opt_.socket_path + ": " + std::strerror(errno));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return fail(std::string("listen: ") + std::strerror(errno));
  }
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return fail("cannot set listen socket non-blocking");
  }
  listen_fd_ = fd;
  if (log_ != nullptr) log_->infof("daemon", "listening on %s", opt_.socket_path.c_str());
  return true;
}

int Server::connect_loopback() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1;
  if (!set_nonblocking(fds[0])) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  Conn conn;
  conn.fd = fds[0];
  conns_.push_back(std::move(conn));
  ++connections_accepted_;
  return fds[1];  // stays blocking: the client side does blocking I/O
}

void Server::close_conn(Conn& conn) {
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
  conn.inbuf.clear();
  conn.outbuf.clear();
}

void Server::enqueue_reply(Conn& conn, std::uint32_t seq, const Msg& reply) {
  conn.outbuf +=
      data::encode_daemon_frame(data::DaemonFrameKind::kResponse, seq,
                                encode_message(reply));
}

Msg Server::dispatch(Conn& conn, const Msg& req) {
  Msg reply;
  if (!conn.hello_done && req.type != MsgType::kHello)
    return make_error("hello required before any other request");
  switch (req.type) {
    case MsgType::kHello: {
      try {
        if (!engine_.resident().has_schema()) {
          engine_.resident().set_schema(req.model_name, req.feature_names);
        } else if (engine_.fleet().model_name != req.model_name ||
                   engine_.fleet().feature_names != req.feature_names) {
          return make_error("schema mismatch: server holds model '" +
                            engine_.fleet().model_name + "'");
        }
      } catch (const std::exception& e) {
        return make_error(e.what());
      }
      conn.hello_done = true;
      reply.type = MsgType::kHelloOk;
      reply.server_name = opt_.server_name;
      reply.model_name = engine_.fleet().model_name;
      reply.feature_names = engine_.fleet().feature_names;
      reply.num_drives = engine_.resident().num_drives();
      reply.max_day = engine_.resident().max_day();
      if (log_ != nullptr)
        log_->debugf("daemon", "hello from '%s'", req.client_name.c_str());
      return reply;
    }
    case MsgType::kAppendDay: {
      try {
        const AppendResult res =
            engine_.append_day(req.drive_id, req.day, req.values, req.fail_day);
        reply.type = MsgType::kAppendOk;
        reply.drive_index = res.drive_index;
        reply.new_drive = res.new_drive;
        reply.went_nonfinite = res.went_nonfinite;
      } catch (const std::exception& e) {
        return make_error(e.what());
      }
      return reply;
    }
    case MsgType::kScoreDrive: {
      if (!engine_.has_predictor())
        return make_error("no predictor yet: still in warmup, or no check has trained");
      const RescoreStats stats = engine_.rescore();
      reply.type = MsgType::kScoreOk;
      reply.days_scored = stats.rows_scored;
      reply.drives_rescored = stats.drives_rescored;
      int day = -1;
      double score = 0.0;
      reply.found = engine_.latest_score(req.drive_id, day, score);
      reply.score_day = day;
      reply.score = score;
      return reply;
    }
    case MsgType::kReport:
      reply.type = MsgType::kReportOk;
      reply.text = engine_.report_json();
      return reply;
    case MsgType::kSaveSnapshot: {
      if (opt_.snapshot_path.empty()) return make_error("no snapshot path configured");
      std::string err;
      if (!data::write_daemon_snapshot(opt_.snapshot_path, engine_.save_snapshot(), &err))
        return make_error(err);
      reply.type = MsgType::kSaveOk;
      reply.text = opt_.snapshot_path;
      return reply;
    }
    case MsgType::kShutdown:
      reply.type = MsgType::kShutdownOk;
      request_stop();
      conn.close_after_flush = true;
      return reply;
    default:
      return make_error(std::string("unexpected message type: ") + to_string(req.type));
  }
}

void Server::handle_frame(Conn& conn, std::uint32_t seq, const std::string& payload) {
  Msg req;
  std::string why;
  if (!decode_message(payload, req, &why)) {
    ++frames_rejected_;
    enqueue_reply(conn, seq, make_error("malformed message: " + why));
    conn.close_after_flush = true;
    return;
  }
  ++frames_ok_;
  enqueue_reply(conn, seq, dispatch(conn, req));
}

void Server::drain_inbuf(Conn& conn) {
  std::size_t pos = 0;
  while (conn.fd >= 0) {
    const std::string_view rest(conn.inbuf.data() + pos, conn.inbuf.size() - pos);
    std::size_t total = 0;
    std::string why;
    const auto peek = data::peek_daemon_frame(rest, total, &why);
    if (peek == data::DaemonFramePeek::kNeedMore) break;
    if (peek == data::DaemonFramePeek::kBad) {
      // Not a frame stream: refuse, best-effort error (seq unknowable),
      // and disconnect — damage is never resynced past.
      ++frames_rejected_;
      if (log_ != nullptr) log_->infof("daemon", "rejecting connection: %s", why.c_str());
      enqueue_reply(conn, 0, make_error("bad frame: " + why));
      conn.close_after_flush = true;
      break;
    }
    if (rest.size() < total) break;  // frame body still in flight
    std::uint32_t seq = 0;
    std::string payload;
    if (!data::decode_daemon_frame(rest.substr(0, total), data::DaemonFrameKind::kRequest,
                                   seq, payload, &why)) {
      ++frames_rejected_;
      if (log_ != nullptr) log_->infof("daemon", "rejecting frame: %s", why.c_str());
      enqueue_reply(conn, 0, make_error("bad frame: " + why));
      conn.close_after_flush = true;
      break;
    }
    pos += total;
    handle_frame(conn, seq, payload);
  }
  if (pos > 0) conn.inbuf.erase(0, pos);
}

bool Server::flush_outbuf(Conn& conn) {
  while (!conn.outbuf.empty()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone
  }
  return true;
}

bool Server::run_once(int timeout_ms) {
  // Stopped and drained: report done.
  if (stopping()) {
    bool pending = false;
    for (const auto& conn : conns_) pending = pending || (conn.fd >= 0 && !conn.outbuf.empty());
    if (!pending) {
      for (auto& conn : conns_) close_conn(conn);
      conns_.clear();
      return false;
    }
  }

  fds_.clear();
  if (listen_fd_ >= 0 && !stopping())
    fds_.push_back(pollfd{listen_fd_, POLLIN, 0});
  const std::size_t conn_base = fds_.size();
  for (const auto& conn : conns_) {
    if (conn.fd < 0) continue;
    short events = POLLIN;
    if (!conn.outbuf.empty()) events |= POLLOUT;
    fds_.push_back(pollfd{conn.fd, events, 0});
  }
  int rc = 0;
  if (served_) {
    const auto spin_until = std::chrono::steady_clock::now() + spin_window();
    while (rc == 0 && std::chrono::steady_clock::now() < spin_until)
      rc = ::poll(fds_.data(), fds_.size(), 0);
  }
  if (rc == 0) rc = ::poll(fds_.data(), fds_.size(), timeout_ms);
  served_ = rc > 0;
  if (rc < 0 && errno != EINTR) return !stopping();
  if (rc <= 0) return true;

  if (conn_base == 1 && (fds_[0].revents & POLLIN) != 0) {
    for (;;) {
      const int cfd = ::accept(listen_fd_, nullptr, nullptr);
      if (cfd < 0) break;
      if (!set_nonblocking(cfd)) {
        ::close(cfd);
        continue;
      }
      Conn conn;
      conn.fd = cfd;
      conns_.push_back(std::move(conn));
      ++connections_accepted_;
    }
  }

  std::size_t poll_i = conn_base;
  for (auto& conn : conns_) {
    if (conn.fd < 0) continue;
    // Map this connection back to its pollfd (same construction order).
    while (poll_i < fds_.size() && fds_[poll_i].fd != conn.fd) ++poll_i;
    if (poll_i >= fds_.size()) break;
    const short rev = fds_[poll_i].revents;
    ++poll_i;
    if ((rev & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char buf[65536];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.inbuf.append(buf, static_cast<std::size_t>(n));
          // A short read took everything queued; only a full buffer
          // may have left more behind.
          if (static_cast<std::size_t>(n) < sizeof(buf)) break;
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        // EOF or hard error: process what arrived, then close.
        drain_inbuf(conn);
        flush_outbuf(conn);
        close_conn(conn);
        break;
      }
      if (conn.fd >= 0) drain_inbuf(conn);
    }
    if (conn.fd >= 0 && !conn.outbuf.empty() && !flush_outbuf(conn)) close_conn(conn);
    if (conn.fd >= 0 && conn.close_after_flush && conn.outbuf.empty()) close_conn(conn);
  }
  std::erase_if(conns_, [](const Conn& conn) { return conn.fd < 0; });
  return true;
}

void Server::run() {
  while (run_once(100)) {
  }
}

}  // namespace wefr::daemon
