#include "daemon/protocol.h"

#include <cstring>
#include <thread>

#include "data/serialize.h"

namespace wefr::daemon {

namespace {

constexpr std::uint32_t kMaxNames = 1u << 16;
constexpr std::uint32_t kMaxValues = 1u << 20;

void write_names(data::ByteWriter& w, const std::vector<std::string>& names) {
  w.scalar(static_cast<std::uint32_t>(names.size()));
  for (const auto& n : names) w.str(n);
}

bool read_names(data::ByteReader& r, std::vector<std::string>& names) {
  std::uint32_t n = 0;
  if (!r.scalar(n) || n > kMaxNames) return false;
  names.resize(n);
  for (auto& name : names) {
    if (!r.str(name)) return false;
  }
  return true;
}

void write_doubles(data::ByteWriter& w, const std::vector<double>& v) {
  w.scalar(static_cast<std::uint32_t>(v.size()));
  w.bytes(v.data(), v.size() * sizeof(double));
}

bool read_doubles(data::ByteReader& r, std::vector<double>& v) {
  std::uint32_t n = 0;
  if (!r.scalar(n) || n > kMaxValues) return false;
  const char* p = r.raw(static_cast<std::size_t>(n) * sizeof(double));
  if (p == nullptr) return false;
  v.resize(n);
  std::memcpy(v.data(), p, static_cast<std::size_t>(n) * sizeof(double));
  return true;
}

}  // namespace

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloOk: return "hello-ok";
    case MsgType::kAppendDay: return "append-day";
    case MsgType::kAppendOk: return "append-ok";
    case MsgType::kScoreDrive: return "score-drive";
    case MsgType::kScoreOk: return "score-ok";
    case MsgType::kReport: return "report";
    case MsgType::kReportOk: return "report-ok";
    case MsgType::kSaveSnapshot: return "save-snapshot";
    case MsgType::kSaveOk: return "save-ok";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kShutdownOk: return "shutdown-ok";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

std::string encode_message(const Msg& m) {
  data::ByteWriter w;
  w.scalar(static_cast<std::uint32_t>(m.type));
  switch (m.type) {
    case MsgType::kHello:
      w.str(m.client_name);
      w.str(m.model_name);
      write_names(w, m.feature_names);
      break;
    case MsgType::kHelloOk:
      w.str(m.server_name);
      w.str(m.model_name);
      write_names(w, m.feature_names);
      w.scalar(m.num_drives);
      w.scalar(m.max_day);
      break;
    case MsgType::kAppendDay:
      w.str(m.drive_id);
      w.scalar(m.day);
      w.scalar(m.fail_day);
      write_doubles(w, m.values);
      break;
    case MsgType::kAppendOk:
      w.scalar(m.drive_index);
      w.scalar(static_cast<std::uint8_t>(m.new_drive ? 1 : 0));
      w.scalar(static_cast<std::uint8_t>(m.went_nonfinite ? 1 : 0));
      break;
    case MsgType::kScoreDrive:
      w.str(m.drive_id);
      break;
    case MsgType::kScoreOk:
      w.scalar(static_cast<std::uint8_t>(m.found ? 1 : 0));
      w.scalar(m.score_day);
      w.scalar(m.score);
      w.scalar(m.days_scored);
      w.scalar(m.drives_rescored);
      break;
    case MsgType::kReport:
    case MsgType::kSaveSnapshot:
    case MsgType::kShutdown:
    case MsgType::kShutdownOk:
      break;  // no fields
    case MsgType::kReportOk:
    case MsgType::kSaveOk:
    case MsgType::kError:
      w.str(m.text);
      break;
  }
  return std::move(w.buf());
}

bool decode_message(std::string_view payload, Msg& m, std::string* why) {
  const auto fail = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  data::ByteReader r(payload);
  std::uint32_t tag = 0;
  if (!r.scalar(tag)) return fail("truncated message");
  m = Msg{};
  m.type = static_cast<MsgType>(tag);
  bool ok = true;
  switch (m.type) {
    case MsgType::kHello:
      ok = r.str(m.client_name) && r.str(m.model_name) && read_names(r, m.feature_names);
      break;
    case MsgType::kHelloOk:
      ok = r.str(m.server_name) && r.str(m.model_name) &&
           read_names(r, m.feature_names) && r.scalar(m.num_drives) && r.scalar(m.max_day);
      break;
    case MsgType::kAppendDay:
      ok = r.str(m.drive_id) && r.scalar(m.day) && r.scalar(m.fail_day) &&
           read_doubles(r, m.values);
      break;
    case MsgType::kAppendOk: {
      std::uint8_t nd = 0, nf = 0;
      ok = r.scalar(m.drive_index) && r.scalar(nd) && r.scalar(nf);
      m.new_drive = nd != 0;
      m.went_nonfinite = nf != 0;
      break;
    }
    case MsgType::kScoreDrive:
      ok = r.str(m.drive_id);
      break;
    case MsgType::kScoreOk: {
      std::uint8_t found = 0;
      ok = r.scalar(found) && r.scalar(m.score_day) && r.scalar(m.score) &&
           r.scalar(m.days_scored) && r.scalar(m.drives_rescored);
      m.found = found != 0;
      break;
    }
    case MsgType::kReport:
    case MsgType::kSaveSnapshot:
    case MsgType::kShutdown:
    case MsgType::kShutdownOk:
      break;
    case MsgType::kReportOk:
    case MsgType::kSaveOk:
    case MsgType::kError:
      ok = r.str(m.text, 1u << 24);
      break;
    default:
      return fail("unknown message type");
  }
  if (!ok) return fail("truncated message");
  if (r.remaining() != 0) return fail("trailing bytes in message");
  return true;
}

Msg make_error(std::string message) {
  Msg m;
  m.type = MsgType::kError;
  m.text = std::move(message);
  return m;
}

std::chrono::microseconds spin_window() {
  static const std::chrono::microseconds window =
      std::thread::hardware_concurrency() >= 2 ? kSpinWindow : std::chrono::microseconds{0};
  return window;
}

}  // namespace wefr::daemon
