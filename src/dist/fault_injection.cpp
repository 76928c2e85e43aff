#include "dist/fault_injection.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "dist/wire.hpp"
#include "util/error.hpp"

namespace coopcr::dist {

namespace {

/// Strict non-negative integer parse for the plan grammar; throws naming
/// the knob on anything but pure decimal digits.
std::uint64_t parse_number(const std::string& text, const std::string& knob,
                           const std::string& what) {
  COOPCR_CHECK(!text.empty(), knob + ": missing " + what + " in fault plan");
  std::uint64_t value = 0;
  for (char c : text) {
    COOPCR_CHECK(c >= '0' && c <= '9', knob + ": " + what + " '" + text +
                                           "' is not a non-negative integer");
    COOPCR_CHECK(value <= (~0ull - 9) / 10, knob + ": " + what + " '" + text +
                                                "' is out of range");
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

int parse_int(const std::string& text, const std::string& knob,
              const std::string& what) {
  const std::uint64_t value = parse_number(text, knob, what);
  COOPCR_CHECK(value <= 1u << 30,
               knob + ": " + what + " '" + text + "' is out of range");
  return static_cast<int>(value);
}

/// Split "A<sep>B" exactly once; throws naming the knob when `sep` is
/// absent.
std::pair<std::string, std::string> split_once(const std::string& text,
                                               char sep,
                                               const std::string& knob,
                                               const std::string& action) {
  const std::size_t at = text.find(sep);
  COOPCR_CHECK(at != std::string::npos,
               knob + ": fault action '" + action + "' needs '" +
                   std::string(1, sep) + "' in its arguments, got '" + text +
                   "'");
  return {text.substr(0, at), text.substr(at + 1)};
}

}  // namespace

FaultPlan& FaultPlan::kill_worker(int worker, int after_units) {
  COOPCR_CHECK(worker >= 0 && after_units >= 0, "kill_worker: bad arguments");
  FaultAction a;
  a.kind = FaultKind::kKillWorker;
  a.worker = worker;
  a.after_units = after_units;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::stall_worker(int worker, int unit) {
  COOPCR_CHECK(worker >= 0 && unit >= 1, "stall_worker: bad arguments");
  FaultAction a;
  a.kind = FaultKind::kStallWorker;
  a.worker = worker;
  a.after_units = unit;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::drop_frame(int worker, int frame) {
  COOPCR_CHECK(worker >= 0 && frame >= 1, "drop_frame: bad arguments");
  FaultAction a;
  a.kind = FaultKind::kDropFrame;
  a.worker = worker;
  a.frame = frame;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::truncate_frame(int worker, int frame) {
  COOPCR_CHECK(worker >= 0 && frame >= 1, "truncate_frame: bad arguments");
  FaultAction a;
  a.kind = FaultKind::kTruncateFrame;
  a.worker = worker;
  a.frame = frame;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::delay_frame(int worker, int frame, int rounds) {
  COOPCR_CHECK(worker >= 0 && frame >= 1 && rounds >= 1,
               "delay_frame: bad arguments");
  FaultAction a;
  a.kind = FaultKind::kDelayFrame;
  a.worker = worker;
  a.frame = frame;
  a.delay_rounds = rounds;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::tear_journal(int after_units, int garbage_bytes) {
  COOPCR_CHECK(after_units >= 0 && garbage_bytes >= 1 && garbage_bytes <= 4096,
               "tear_journal: bad arguments");
  FaultAction a;
  a.kind = FaultKind::kTearJournal;
  a.after_units = after_units;
  a.tear_bytes = garbage_bytes;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::flip_journal_byte(int after_units,
                                        std::uint64_t offset) {
  COOPCR_CHECK(after_units >= 0, "flip_journal_byte: bad arguments");
  FaultAction a;
  a.kind = FaultKind::kFlipJournalByte;
  a.after_units = after_units;
  a.offset = offset;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::interrupt(int after_units) {
  COOPCR_CHECK(after_units >= 0, "interrupt: bad arguments");
  FaultAction a;
  a.kind = FaultKind::kInterrupt;
  a.after_units = after_units;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::resize(int shards, int after_units) {
  COOPCR_CHECK(shards >= 1 && after_units >= 0, "resize: bad arguments");
  FaultAction a;
  a.kind = FaultKind::kResize;
  a.shards = shards;
  a.after_units = after_units;
  actions_.push_back(a);
  return *this;
}

FaultPlan FaultPlan::parse(const std::string& text, const std::string& knob) {
  FaultPlan plan;
  if (text.empty()) return plan;
  // Every comma separates two actions, so a leading, doubled or trailing
  // comma yields an empty action and is refused.
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string action = text.substr(begin, end - begin);
    begin = end + 1;
    COOPCR_CHECK(!action.empty(),
                 knob + ": empty fault action in plan '" + text + "'");
    const auto [name, args] = split_once(action, '=', knob, action);
    if (name == "kill") {
      const auto [w, n] = split_once(args, '@', knob, action);
      plan.kill_worker(parse_int(w, knob, "worker"),
                       parse_int(n, knob, "unit trigger"));
    } else if (name == "stall") {
      const auto [w, n] = split_once(args, '@', knob, action);
      const int unit = parse_int(n, knob, "unit number");
      COOPCR_CHECK(unit >= 1,
                   knob + ": unit number must be >= 1 in '" + action + "'");
      plan.stall_worker(parse_int(w, knob, "worker"), unit);
    } else if (name == "drop" || name == "trunc") {
      const auto [w, f] = split_once(args, '@', knob, action);
      const int frame = parse_int(f, knob, "frame number");
      COOPCR_CHECK(frame >= 1,
                   knob + ": frame number must be >= 1 in '" + action + "'");
      if (name == "drop") {
        plan.drop_frame(parse_int(w, knob, "worker"), frame);
      } else {
        plan.truncate_frame(parse_int(w, knob, "worker"), frame);
      }
    } else if (name == "delay") {
      const auto [w, rest] = split_once(args, '@', knob, action);
      const auto [f, r] = split_once(rest, ':', knob, action);
      const int frame = parse_int(f, knob, "frame number");
      const int rounds = parse_int(r, knob, "delay rounds");
      COOPCR_CHECK(frame >= 1 && rounds >= 1,
                   knob + ": frame number and delay rounds must be >= 1 in '" +
                       action + "'");
      plan.delay_frame(parse_int(w, knob, "worker"), frame, rounds);
    } else if (name == "tear") {
      const auto [n, b] = split_once(args, ':', knob, action);
      const int bytes = parse_int(b, knob, "garbage bytes");
      COOPCR_CHECK(bytes >= 1 && bytes <= 4096,
                   knob + ": garbage bytes must be in [1, 4096] in '" +
                       action + "'");
      plan.tear_journal(parse_int(n, knob, "unit trigger"), bytes);
    } else if (name == "flip") {
      const auto [n, off] = split_once(args, ':', knob, action);
      plan.flip_journal_byte(parse_int(n, knob, "unit trigger"),
                             parse_number(off, knob, "byte offset"));
    } else if (name == "interrupt") {
      plan.interrupt(parse_int(args, knob, "unit trigger"));
    } else if (name == "resize") {
      const auto [s, n] = split_once(args, '@', knob, action);
      const int shards = parse_int(s, knob, "shard count");
      COOPCR_CHECK(shards >= 1,
                   knob + ": shard count must be >= 1 in '" + action + "'");
      plan.resize(shards, parse_int(n, knob, "unit trigger"));
    } else {
      COOPCR_CHECK(false, knob + ": unknown fault action '" + name +
                              "' — expected kill, stall, drop, trunc, delay, "
                              "tear, flip, interrupt or resize");
    }
  }
  return plan;
}

bool FaultPlan::touches_journal() const {
  for (const FaultAction& a : actions_) {
    if (a.kind == FaultKind::kTearJournal ||
        a.kind == FaultKind::kFlipJournalByte) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::stalls_workers() const {
  for (const FaultAction& a : actions_) {
    if (a.kind == FaultKind::kStallWorker) return true;
  }
  return false;
}

std::vector<FaultAction> FaultPlan::take_due(int fresh_results) {
  std::vector<FaultAction> due;
  for (FaultAction& a : actions_) {
    if (a.fired || a.kind == FaultKind::kStallWorker ||
        a.kind == FaultKind::kDropFrame ||
        a.kind == FaultKind::kTruncateFrame ||
        a.kind == FaultKind::kDelayFrame) {
      continue;
    }
    if (a.after_units <= fresh_results) {
      a.fired = true;
      due.push_back(a);
    }
  }
  return due;
}

FaultAction FaultPlan::take_frame_fault(int worker, int frame) {
  for (FaultAction& a : actions_) {
    if (a.fired || a.worker != worker || a.frame != frame) continue;
    if (a.kind != FaultKind::kDropFrame &&
        a.kind != FaultKind::kTruncateFrame &&
        a.kind != FaultKind::kDelayFrame) {
      continue;
    }
    a.fired = true;
    FaultAction fired = a;
    return fired;
  }
  FaultAction none;
  none.fired = false;
  return none;
}

bool FaultPlan::take_stall(int worker, int unit) {
  for (FaultAction& a : actions_) {
    if (!a.fired && a.kind == FaultKind::kStallWorker && a.worker == worker &&
        a.after_units == unit) {
      a.fired = true;
      return true;
    }
  }
  return false;
}

void append_torn_journal_tail(int fd, int garbage_bytes) {
  COOPCR_CHECK(fd >= 0 && garbage_bytes >= 1, "torn tail: bad arguments");
  // 0xA5 everywhere: the first four bytes decode as a length prefix far
  // beyond kMaxFramePayload, so replay classifies the tail as torn no
  // matter how many bytes land.
  const std::vector<std::uint8_t> garbage(
      static_cast<std::size_t>(garbage_bytes), 0xA5);
  write_all(fd, garbage.data(), garbage.size(), "torn tail");
}

void flip_journal_byte_at(const std::string& path, std::uint64_t offset) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  COOPCR_CHECK(fd >= 0, "cannot open journal for byte flip: " + path + ": " +
                            std::strerror(errno));
  std::uint8_t byte = 0;
  const ssize_t got = ::pread(fd, &byte, 1, static_cast<off_t>(offset));
  if (got != 1) {
    ::close(fd);
    COOPCR_CHECK(false, "journal byte flip offset " + std::to_string(offset) +
                            " is past the end of " + path);
  }
  byte ^= 0xFF;
  const ssize_t put = ::pwrite(fd, &byte, 1, static_cast<off_t>(offset));
  ::close(fd);
  COOPCR_CHECK(put == 1, "journal byte flip write failed: " + path);
}

}  // namespace coopcr::dist
