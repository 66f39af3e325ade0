#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "daemon/engine.h"
#include "daemon/protocol.h"

namespace wefr::obs {
class Logger;
}

namespace wefr::daemon {

struct ServerOptions {
  /// Unix-domain socket path; empty = loopback-only (connect_loopback).
  std::string socket_path;
  /// Where kSaveSnapshot writes the WEFRDS01 blob; empty refuses saves.
  std::string snapshot_path;
  std::string server_name = "wefrd";
};

/// Single-threaded event loop serving the wefrd protocol over
/// non-blocking Unix-domain stream sockets.
///
/// Framing discipline: every inbound byte stream is parsed with
/// data::peek_daemon_frame / decode_daemon_frame. A client whose stream
/// is not a valid frame sequence — bad magic, foreign protocol version,
/// payload size lie, digest mismatch — gets one error reply (when the
/// sequence number is recoverable) and is disconnected; damage is never
/// "resynced" past. Crash-safe clients simply reconnect and re-hello:
/// the engine state is resident in this process, so a reconnect loses
/// nothing (appends are idempotent at the protocol level only in the
/// sense that a duplicate contiguity violation is refused with an
/// error, not applied twice).
///
/// The loop is intentionally single-threaded: the engine's forest
/// passes already parallelize inside rescore(), and one thread owning
/// all state keeps the protocol layer free of synchronization (TSan
/// runs it under the loopback transport, see connect_loopback).
///
/// Spin-then-block: after an iteration that handled an event, the next
/// one polls its fds without a timeout for up to spin_window() before
/// it blocks, so a closed-loop client's next request finds the loop
/// awake. An idle loop blocks on its first pass. A readable connection
/// is read once, and again only while reads fill the buffer; EOF shows
/// up at the next poll.
class Server {
 public:
  Server(Engine& engine, ServerOptions options, obs::Logger* log = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on options.socket_path (unlinking a stale
  /// socket). False with `error` on failure.
  bool listen_unix(std::string* error = nullptr);

  /// Creates an in-process socketpair, registers the server end as a
  /// connection, and returns the client end's fd (caller owns it; hand
  /// it to Client::adopt_fd). The sanitizer transport: identical event
  /// loop, no filesystem socket. Returns -1 on failure.
  int connect_loopback();

  /// One poll iteration: accepts, reads, dispatches, writes. Blocks up
  /// to `timeout_ms` for an event (after first spinning, when the last
  /// iteration handled one). Returns false once stopped and all
  /// connections have drained or closed.
  bool run_once(int timeout_ms = 100);

  /// Runs until request_stop() (or a shutdown message) stops the loop.
  void run();

  /// Async-signal-safe stop request.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  std::uint64_t connections_accepted() const { return connections_accepted_; }
  std::uint64_t frames_ok() const { return frames_ok_; }
  std::uint64_t frames_rejected() const { return frames_rejected_; }

 private:
  struct Conn {
    int fd = -1;
    bool hello_done = false;
    bool close_after_flush = false;
    std::string inbuf;
    std::string outbuf;
  };

  void handle_frame(Conn& conn, std::uint32_t seq, const std::string& payload);
  Msg dispatch(Conn& conn, const Msg& req);
  void enqueue_reply(Conn& conn, std::uint32_t seq, const Msg& reply);
  void drain_inbuf(Conn& conn);
  bool flush_outbuf(Conn& conn);  ///< false when the connection died
  void close_conn(Conn& conn);

  Engine& engine_;
  ServerOptions opt_;
  obs::Logger* log_ = nullptr;
  int listen_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<pollfd> fds_;  ///< rebuilt each pass, kept to reuse its storage
  bool served_ = false;      ///< the last pass handled an event
  std::atomic<bool> stop_{false};
  std::uint64_t connections_accepted_ = 0;
  std::uint64_t frames_ok_ = 0;
  std::uint64_t frames_rejected_ = 0;
};

}  // namespace wefr::daemon
