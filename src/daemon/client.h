#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daemon/protocol.h"

namespace wefr::daemon {

/// Blocking wefrd protocol client with crash-safe reconnect.
///
/// Every request is one WEFRDM01 frame carrying a fresh sequence
/// number; the reply frame must echo it. On a transport failure (send/
/// recv error, EOF, or a frame that fails validation) the client —
/// when it was dialed over a socket path — reconnects, re-sends hello,
/// and retries the request once before giving up, so a daemon restart
/// between requests is invisible to callers. Application-level
/// refusals (kError replies) are returned as-is, never retried: the
/// server processed the request and said no.
///
/// A loopback client (adopt_fd) has no address to redial, so transport
/// failures are terminal for it.
///
/// After each send the client polls for the reply without sleeping for
/// up to spin_window(), then blocks (the server spins on its side too):
/// a reply served within the window costs no thread wakeup.
class Client {
 public:
  struct Options {
    std::string socket_path;  ///< empty for adopt_fd-only use
    std::string client_name = "client";
    /// Fleet schema sent in hello (and re-hello after reconnect).
    std::string model_name;
    std::vector<std::string> feature_names;
    int max_retries = 1;  ///< transport-failure retries per request
  };

  explicit Client(Options options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Dials options.socket_path and performs the hello handshake.
  bool connect(std::string* error = nullptr);

  /// Adopts an already-connected fd (Server::connect_loopback) and
  /// performs the hello handshake. The client owns the fd afterwards.
  bool adopt_fd(int fd, std::string* error = nullptr);

  bool connected() const { return fd_ >= 0; }
  void close();

  /// Simulates a mid-stream client crash for tests: drops the fd
  /// without a goodbye, so the next request exercises the reconnect
  /// path.
  void drop_connection_for_test();

  /// Sends `req`, waits for the matching reply. False with `error` only
  /// on unrecoverable transport failure; a kError reply returns true
  /// with the refusal in `reply`.
  bool call(const Msg& req, Msg& reply, std::string* error = nullptr);

  // Typed conveniences over call().
  bool append_day(const std::string& drive_id, int day, const std::vector<double>& values,
                  int fail_day, Msg& reply, std::string* error = nullptr);
  bool score_drive(const std::string& drive_id, Msg& reply, std::string* error = nullptr);
  bool report(Msg& reply, std::string* error = nullptr);
  bool save_snapshot(Msg& reply, std::string* error = nullptr);
  bool shutdown_server(Msg& reply, std::string* error = nullptr);

  /// hello-ok contents from the most recent handshake.
  const Msg& hello_reply() const { return hello_reply_; }
  std::uint64_t reconnects() const { return reconnects_; }

 private:
  bool send_all(const std::string& bytes);
  bool recv_frame(std::uint32_t& seq, std::string& payload, std::string* why);
  bool handshake(std::string* error);
  bool dial(std::string* error);
  bool transact(const Msg& req, Msg& reply, std::string* why);

  Options opt_;
  int fd_ = -1;
  std::uint32_t next_seq_ = 1;
  Msg hello_reply_;
  std::string recv_buf_;
  std::uint64_t reconnects_ = 0;
};

}  // namespace wefr::daemon
