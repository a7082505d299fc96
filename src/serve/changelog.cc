#include "serve/changelog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "data/problem_io.h"
#include "serve/json_value.h"
#include "util/fault.h"

namespace factcheck {
namespace serve {
namespace {

namespace fs = std::filesystem;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// Reads a required finite number member.
bool GetNumber(const JsonValue& json, const char* key, double* out,
               std::string* error) {
  const JsonValue* value = json.Find(key);
  if (value == nullptr || !value->is_number()) {
    return Fail(error, std::string("\"") + key + "\" (number) is required");
  }
  *out = value->number();
  if (!std::isfinite(*out)) {
    return Fail(error, std::string("\"") + key + "\" must be finite");
  }
  return true;
}

// Reads a required non-negative integral number member.
bool GetIndex(const JsonValue& json, const char* key, int* out,
              std::string* error) {
  double number = 0.0;
  if (!GetNumber(json, key, &number, error)) return false;
  if (!IsIntegerIn(number, 0, 1e9)) {
    return Fail(error,
                std::string("\"") + key + "\" must be a small non-negative "
                                          "integer");
  }
  *out = static_cast<int>(number);
  return true;
}

bool GetDoubleArray(const JsonValue& json, const char* key,
                    std::vector<double>* out, std::string* error) {
  const JsonValue* value = json.Find(key);
  if (value == nullptr || !value->is_array()) {
    return Fail(error, std::string("\"") + key + "\" (array) is required");
  }
  out->clear();
  for (const JsonValue& item : value->array()) {
    if (!item.is_number() || !std::isfinite(item.number())) {
      return Fail(error, std::string("\"") + key +
                             "\" must hold finite numbers");
    }
    out->push_back(item.number());
  }
  return true;
}

// Validates a (support, probs) payload exactly as strictly as the
// DiscreteDistribution constructor checks it, so construction can never
// abort on input that passed here.
bool CheckDistPayload(const std::vector<double>& support,
                      const std::vector<double>& probs, std::string* error) {
  if (support.empty()) return Fail(error, "\"support\" must be non-empty");
  if (support.size() != probs.size()) {
    return Fail(error, "\"support\" and \"probs\" must have equal length");
  }
  double total = 0.0;
  for (double p : probs) {
    if (p < 0.0) return Fail(error, "\"probs\" must be non-negative");
    total += p;
  }
  if (!(total > 0.0)) {
    return Fail(error, "\"probs\" must have positive total mass");
  }
  return true;
}

void WriteDoubleArray(JsonWriter& writer, const std::vector<double>& values) {
  writer.BeginArray();
  for (double v : values) writer.Number(v);
  writer.EndArray();
}

// write(2) all of `data` to `fd`; EINTR-safe.  Fault injection at
// `fault_point` (util/fault.h): kEintr and kShortWrite are recovered by
// the loop (the call still completes — they only exercise the retry
// path); kEnospc fails before a byte lands; kTornWrite persists exactly
// the decision's byte count and then fails — the on-disk suffix is torn
// precisely as a crash mid-append would leave it.
bool WriteAllFd(int fd, const std::string& data,
                [[maybe_unused]] const char* fault_point,
                const std::string& path, std::string* error) {
  fault::Decision injected = FC_FAULT_POINT(fault_point, data.size());
  if (injected.kind == fault::FaultKind::kEnospc) {
    return Fail(error, path + ": injected ENOSPC");
  }
  if (injected.kind == fault::FaultKind::kTornWrite) {
    const size_t torn = injected.bytes < data.size() ? injected.bytes
                                                     : data.size();
    size_t sent = 0;
    while (sent < torn) {
      ssize_t n = ::write(fd, data.data() + sent, torn - sent);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      sent += static_cast<size_t>(n);
    }
    return Fail(error, path + ": injected torn write after " +
                           std::to_string(sent) + " bytes");
  }
  bool simulate_eintr = injected.kind == fault::FaultKind::kEintr;
  const size_t first_chunk =
      injected.kind == fault::FaultKind::kShortWrite && injected.bytes > 0
          ? injected.bytes
          : data.size();
  size_t sent = 0;
  while (sent < data.size()) {
    if (simulate_eintr) {
      // One spurious "interrupted" pass, exactly what a real EINTR does.
      simulate_eintr = false;
      continue;
    }
    size_t want = data.size() - sent;
    if (sent == 0 && first_chunk < want) want = first_chunk;
    ssize_t n = ::write(fd, data.data() + sent, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Fail(error, path + ": " + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "batch";
}

std::optional<FsyncPolicy> ParseFsyncPolicy(const std::string& name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "batch") return FsyncPolicy::kBatch;
  if (name == "off") return FsyncPolicy::kOff;
  return std::nullopt;
}

void WriteDeltaJson(const ProblemDelta& delta, JsonWriter& writer) {
  writer.BeginObject();
  writer.Key("kind").String(DeltaKindName(delta.kind));
  switch (delta.kind) {
    case DeltaKind::kReplaceDistribution:
      writer.Key("object").Int(delta.object);
      writer.Key("support");
      WriteDoubleArray(writer, delta.dist.values());
      writer.Key("probs");
      WriteDoubleArray(writer, delta.dist.probs());
      break;
    case DeltaKind::kAddObject:
      writer.Key("label").String(delta.added.label);
      writer.Key("current").Number(delta.added.current_value);
      writer.Key("cost").Number(delta.added.cost);
      writer.Key("support");
      WriteDoubleArray(writer, delta.added.dist.values());
      writer.Key("probs");
      WriteDoubleArray(writer, delta.added.dist.probs());
      break;
    case DeltaKind::kRemoveObject:
      writer.Key("object").Int(delta.object);
      break;
    case DeltaKind::kSetCost:
      writer.Key("object").Int(delta.object);
      writer.Key("cost").Number(delta.value);
      break;
    case DeltaKind::kSetCurrentValue:
      writer.Key("object").Int(delta.object);
      writer.Key("value").Number(delta.value);
      break;
    case DeltaKind::kClean:
      writer.Key("object").Int(delta.object);
      writer.Key("value").Number(delta.value);
      break;
  }
  writer.EndObject();
}

bool DeltaFromJson(const JsonValue& json, ProblemDelta* out,
                   std::string* error) {
  if (!json.is_object()) return Fail(error, "delta must be a JSON object");
  const JsonValue* kind = json.Find("kind");
  if (kind == nullptr || !kind->is_string()) {
    return Fail(error, "\"kind\" (string) is required");
  }
  const std::string& name = kind->string();
  std::vector<double> support, probs;
  if (name == "replace_dist") {
    int object = 0;
    if (!GetIndex(json, "object", &object, error) ||
        !GetDoubleArray(json, "support", &support, error) ||
        !GetDoubleArray(json, "probs", &probs, error) ||
        !CheckDistPayload(support, probs, error)) {
      return false;
    }
    *out = ProblemDelta::ReplaceDistribution(
        object, DiscreteDistribution(std::move(support), std::move(probs)));
    return true;
  }
  if (name == "add_object") {
    const JsonValue* label = json.Find("label");
    if (label == nullptr || !label->is_string()) {
      return Fail(error, "\"label\" (string) is required");
    }
    UncertainObject added;
    added.label = label->string();
    if (!GetNumber(json, "current", &added.current_value, error) ||
        !GetNumber(json, "cost", &added.cost, error) ||
        !GetDoubleArray(json, "support", &support, error) ||
        !GetDoubleArray(json, "probs", &probs, error) ||
        !CheckDistPayload(support, probs, error)) {
      return false;
    }
    if (added.cost <= 0.0) return Fail(error, "\"cost\" must be positive");
    added.dist = DiscreteDistribution(std::move(support), std::move(probs));
    *out = ProblemDelta::AddObject(std::move(added));
    return true;
  }
  if (name == "remove_object") {
    int object = 0;
    if (!GetIndex(json, "object", &object, error)) return false;
    *out = ProblemDelta::RemoveObject(object);
    return true;
  }
  if (name == "set_cost") {
    int object = 0;
    double cost = 0.0;
    if (!GetIndex(json, "object", &object, error) ||
        !GetNumber(json, "cost", &cost, error)) {
      return false;
    }
    if (cost <= 0.0) return Fail(error, "\"cost\" must be positive");
    *out = ProblemDelta::SetCost(object, cost);
    return true;
  }
  if (name == "set_value") {
    int object = 0;
    double value = 0.0;
    if (!GetIndex(json, "object", &object, error) ||
        !GetNumber(json, "value", &value, error)) {
      return false;
    }
    *out = ProblemDelta::SetCurrentValue(object, value);
    return true;
  }
  if (name == "clean") {
    int object = 0;
    double value = 0.0;
    if (!GetIndex(json, "object", &object, error) ||
        !GetNumber(json, "value", &value, error)) {
      return false;
    }
    *out = ProblemDelta::Clean(object, value);
    return true;
  }
  return Fail(error, "unknown delta kind \"" + name + "\"");
}

std::string EncodeSnapshot(const CleaningProblem& problem,
                           const std::vector<int>& refs,
                           const std::vector<double>& coeffs,
                           std::int64_t seq) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("seq").Int(seq);
  writer.Key("refs").BeginArray();
  for (int ref : refs) writer.Int(ref);
  writer.EndArray();
  writer.Key("coeffs");
  WriteDoubleArray(writer, coeffs);
  writer.Key("csv").String(data::ProblemToCsv(problem));
  writer.EndObject();
  return writer.str();
}

bool DecodeSnapshot(const std::string& text, std::int64_t* seq,
                    std::string* csv, std::vector<int>* refs,
                    std::vector<double>* coeffs, std::string* error) {
  std::optional<JsonValue> json = JsonValue::Parse(text, error);
  if (!json.has_value()) return false;
  if (!json->is_object()) return Fail(error, "snapshot must be an object");
  double seq_number = 0.0;
  if (!GetNumber(*json, "seq", &seq_number, error)) return false;
  if (!IsIntegerIn(seq_number, 0, kMaxSeq)) {
    return Fail(error, "\"seq\" must be an integer in [0, 2^53]");
  }
  *seq = static_cast<std::int64_t>(seq_number);
  const JsonValue* csv_value = json->Find("csv");
  if (csv_value == nullptr || !csv_value->is_string()) {
    return Fail(error, "\"csv\" (string) is required");
  }
  *csv = csv_value->string();
  const JsonValue* refs_value = json->Find("refs");
  if (refs_value == nullptr || !refs_value->is_array()) {
    return Fail(error, "\"refs\" (array) is required");
  }
  refs->clear();
  for (const JsonValue& item : refs_value->array()) {
    if (!item.is_number() || !IsIntegerIn(item.number(), -1e9, 1e9)) {
      return Fail(error, "\"refs\" must hold integers");
    }
    refs->push_back(static_cast<int>(item.number()));
  }
  return GetDoubleArray(*json, "coeffs", coeffs, error);
}

std::string EncodeLogRecord(std::int64_t seq, const ProblemDelta& delta) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("seq").Int(seq);
  writer.Key("delta");
  WriteDeltaJson(delta, writer);
  writer.EndObject();
  return writer.str();
}

bool ReplayChangelog(const std::string& log, std::int64_t base_seq,
                     CleaningProblem* problem, std::int64_t* last_seq,
                     std::string* error) {
  // Parse + validate the whole log against a scratch copy first, so a
  // defect anywhere leaves the caller's problem untouched.
  CleaningProblem scratch = *problem;
  std::vector<ProblemDelta> applied;
  std::int64_t previous_seq = -1;  // any first seq is an increase
  std::int64_t applied_seq = base_seq;
  size_t pos = 0;
  int line_no = 0;
  while (pos < log.size()) {
    size_t end = log.find('\n', pos);
    if (end == std::string::npos) {
      // A log file always ends in a newline; a partial final line is a
      // torn append and fails closed.
      return Fail(error, "changelog: truncated final record");
    }
    ++line_no;
    const std::string line = log.substr(pos, end - pos);
    pos = end + 1;
    const std::string where = "changelog line " + std::to_string(line_no);
    if (line.empty()) return Fail(error, where + ": empty record");
    std::string parse_error;
    std::optional<JsonValue> record = JsonValue::Parse(line, &parse_error);
    if (!record.has_value()) {
      return Fail(error, where + ": " + parse_error);
    }
    if (!record->is_object()) {
      return Fail(error, where + ": record must be an object");
    }
    double seq_number = 0.0;
    if (!GetNumber(*record, "seq", &seq_number, &parse_error)) {
      return Fail(error, where + ": " + parse_error);
    }
    if (!IsIntegerIn(seq_number, 1, kMaxSeq)) {
      return Fail(error, where + ": \"seq\" must be an integer in [1, 2^53]");
    }
    const std::int64_t seq = static_cast<std::int64_t>(seq_number);
    if (seq <= previous_seq) {
      return Fail(error, where + ": sequence number " + std::to_string(seq) +
                             " repeats or runs backwards");
    }
    previous_seq = seq;
    if (seq <= base_seq) continue;  // compaction crash window: pre-snapshot
    if (seq != applied_seq + 1) {
      return Fail(error, where + ": gap — expected sequence number " +
                             std::to_string(applied_seq + 1) + ", found " +
                             std::to_string(seq));
    }
    const JsonValue* delta_json = record->Find("delta");
    if (delta_json == nullptr) {
      return Fail(error, where + ": \"delta\" is required");
    }
    ProblemDelta delta;
    if (!DeltaFromJson(*delta_json, &delta, &parse_error) ||
        !ValidateDelta(scratch, delta, &parse_error)) {
      return Fail(error, where + ": " + parse_error);
    }
    scratch.Apply(delta);
    applied.push_back(std::move(delta));
    applied_seq = seq;
  }
  for (const ProblemDelta& delta : applied) problem->Apply(delta);
  if (last_seq != nullptr) *last_seq = applied_seq;
  return true;
}

bool ChangelogStore::Init(std::string* error) {
  std::error_code ec;
  if (fs::exists(dir_, ec)) {
    if (!fs::is_directory(dir_, ec)) {
      return Fail(error, dir_ + " exists and is not a directory");
    }
    return true;
  }
  if (!fs::create_directory(dir_, ec)) {
    return Fail(error, "cannot create " + dir_ + ": " + ec.message());
  }
  return true;
}

bool ChangelogStore::ValidName(const std::string& name) {
  if (name.empty() || name.size() > 200 || name[0] == '.') return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string ChangelogStore::SnapshotPath(const std::string& name) const {
  return dir_ + "/" + name + ".snapshot";
}

std::string ChangelogStore::LogPath(const std::string& name) const {
  return dir_ + "/" + name + ".log";
}

bool ChangelogStore::SyncFd(int fd, const std::string& path,
                            std::string* error) {
  if (::fsync(fd) != 0) {
    return Fail(error, "fsync " + path + ": " + std::strerror(errno));
  }
  ++fsyncs_;
  return true;
}

bool ChangelogStore::SaveSnapshot(const std::string& name,
                                  const std::string& snapshot,
                                  std::string* error) {
  if (!ValidName(name)) return Fail(error, "invalid problem name for disk");
  const std::string path = SnapshotPath(name);
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Fail(error, "cannot write " + tmp + ": " + std::strerror(errno));
  }
  bool ok = WriteAllFd(fd, snapshot + "\n", "changelog.snapshot", tmp, error);
  // The tmp file must be durable BEFORE the rename publishes it, or a
  // crash after the rename could leave the published name pointing at
  // unwritten data.
  if (ok && fsync_policy_ != FsyncPolicy::kOff) ok = SyncFd(fd, tmp, error);
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Fail(error, "cannot rename " + tmp + ": " + ec.message());
  // The rename itself lives in the directory entry; sync that too so the
  // publish survives a crash.
  if (fsync_policy_ != FsyncPolicy::kOff) {
    int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd < 0) {
      return Fail(error, "cannot open " + dir_ + ": " + std::strerror(errno));
    }
    bool dir_ok = SyncFd(dir_fd, dir_, error);
    ::close(dir_fd);
    if (!dir_ok) return false;
  }
  // Truncating after the rename keeps the crash window on the tolerated
  // side: a leftover log only ever holds records the snapshot already
  // contains, which replay skips by sequence number.
  const std::string log_path = LogPath(name);
  int log_fd = ::open(log_path.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Fail(error,
                "cannot truncate " + log_path + ": " + std::strerror(errno));
  }
  bool log_ok = fsync_policy_ == FsyncPolicy::kOff ||
                SyncFd(log_fd, log_path, error);
  ::close(log_fd);
  return log_ok;
}

bool ChangelogStore::AppendRecords(const std::string& name,
                                   const std::vector<std::string>& lines,
                                   std::string* error) {
  if (!ValidName(name)) return Fail(error, "invalid problem name for disk");
  if (lines.empty()) return true;
  const std::string path = LogPath(name);
  int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Fail(error, "cannot open " + path + ": " + std::strerror(errno));
  }
  bool ok = true;
  for (const std::string& line : lines) {
    if (!WriteAllFd(fd, line + "\n", "changelog.append", path, error)) {
      ok = false;
      break;
    }
    // kAlways: the record is durable before the next one is written (and
    // before the batch is acknowledged).
    if (fsync_policy_ == FsyncPolicy::kAlways && !SyncFd(fd, path, error)) {
      ok = false;
      break;
    }
  }
  // kBatch group commit: the whole batch rides one fsync.
  if (ok && fsync_policy_ == FsyncPolicy::kBatch &&
      !SyncFd(fd, path, error)) {
    ok = false;
  }
  ::close(fd);
  return ok;
}

bool ChangelogStore::AppendRecord(const std::string& name,
                                  const std::string& line,
                                  std::string* error) {
  return AppendRecords(name, {line}, error);
}

bool ChangelogStore::LoadAll(std::vector<LoadedProblem>* out,
                             std::string* error) const {
  out->clear();
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return true;  // nothing persisted yet
  auto read_file = [](const std::string& path, std::string* contents) {
    std::ifstream in(path);
    if (!in) return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *contents = buffer.str();
    return true;
  };
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    const std::string filename = entry.path().filename().string();
    constexpr char kSuffix[] = ".snapshot";
    constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
    if (filename.size() > kSuffixLen &&
        filename.compare(filename.size() - kSuffixLen, kSuffixLen, kSuffix) ==
            0) {
      names.push_back(filename.substr(0, filename.size() - kSuffixLen));
    } else if (filename.size() > 4 &&
               filename.compare(filename.size() - 4, 4, ".log") == 0) {
      const std::string stem = filename.substr(0, filename.size() - 4);
      if (!fs::exists(SnapshotPath(stem))) {
        return Fail(error, "orphaned log " + filename +
                               " (no matching .snapshot) — refusing to load "
                               "a partially persisted problem");
      }
    }
  }
  if (ec) return Fail(error, "cannot list " + dir_ + ": " + ec.message());
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    LoadedProblem loaded;
    loaded.name = name;
    if (!read_file(SnapshotPath(name), &loaded.snapshot)) {
      return Fail(error, "cannot read " + SnapshotPath(name));
    }
    if (fs::exists(LogPath(name)) &&
        !read_file(LogPath(name), &loaded.log)) {
      return Fail(error, "cannot read " + LogPath(name));
    }
    out->push_back(std::move(loaded));
  }
  return true;
}

}  // namespace serve
}  // namespace factcheck
