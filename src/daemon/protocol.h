#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wefr::daemon {

/// Message vocabulary of the wefrd client protocol. Every message
/// travels as the payload of one WEFRDM01 frame (data::encode_daemon_
/// frame): the frame carries transport integrity (magic, protocol
/// version, digest, sequence number); the payload carries a u32 type
/// tag followed by the type's fields. Replies reuse the request's
/// sequence number, so a client can pair them across a reconnect gap.
enum class MsgType : std::uint32_t {
  kHello = 1,        ///< client -> server: name + fleet schema
  kHelloOk = 2,      ///< schema accepted (or echoed, when already set)
  kAppendDay = 3,    ///< one drive-day of raw features
  kAppendOk = 4,
  kScoreDrive = 5,   ///< rescore dirty set, return the drive's latest score
  kScoreOk = 6,
  kReport = 7,       ///< engine status snapshot
  kReportOk = 8,     ///< JSON report text
  kSaveSnapshot = 9, ///< persist a WEFRDS01 warm-restart blob
  kSaveOk = 10,
  kShutdown = 11,    ///< stop the event loop after replying
  kShutdownOk = 12,
  kError = 100,      ///< application-level refusal (text carries why)
};

const char* to_string(MsgType t);

/// One protocol message, request or reply. A flat struct rather than a
/// variant: each type reads/writes only its own fields, and the single
/// shape keeps the client call surface and the server dispatch simple.
struct Msg {
  MsgType type = MsgType::kError;

  // kHello / kHelloOk
  std::string client_name;  ///< hello: who is connecting
  std::string model_name;   ///< hello: fleet schema; hello-ok: echoed
  std::vector<std::string> feature_names;
  std::string server_name;       ///< hello-ok
  std::uint64_t num_drives = 0;  ///< hello-ok
  std::int32_t max_day = -1;     ///< hello-ok

  // kAppendDay / kAppendOk
  std::string drive_id;       ///< also kScoreDrive
  std::int32_t day = 0;
  std::int32_t fail_day = -1;
  std::vector<double> values;
  std::uint64_t drive_index = 0;
  bool new_drive = false;
  bool went_nonfinite = false;

  // kScoreOk
  bool found = false;
  std::int32_t score_day = -1;  ///< day of `score` (the drive's last day)
  double score = 0.0;
  std::uint64_t days_scored = 0;       ///< rows freshly scored by this rescore
  std::uint64_t drives_rescored = 0;

  // kReportOk / kSaveOk / kError
  std::string text;  ///< JSON report, snapshot path, or error message
};

/// Serializes `m` (type tag + fields) into a frame payload.
std::string encode_message(const Msg& m);

/// Parses a frame payload. False (reason in `why`) on truncation, an
/// unknown type tag, or field bounds violations.
bool decode_message(std::string_view payload, Msg& m, std::string* why = nullptr);

/// Convenience: an error reply carrying `message`.
Msg make_error(std::string message);

/// Spin-then-block transport: the server after an iteration that
/// handled an event, and the client after sending a request, poll
/// without sleeping for up to this long before they block. A closed-
/// loop client's next request (or the reply to an append, ~10 µs of
/// service) then lands while its peer is still awake, saving two thread
/// wakeups per round trip; a day close (ms) or a check (~1 s) still
/// blocks.
inline constexpr std::chrono::microseconds kSpinWindow{50};

/// kSpinWindow, or zero on a single hardware thread, where a spinning
/// side only delays its peer.
std::chrono::microseconds spin_window();

}  // namespace wefr::daemon
