// Durable streaming updates for PlanningService: an append-only per-
// problem delta log plus periodic snapshot compaction, so a restarted
// service reconstructs exactly the problem state a never-restarted one
// holds (the serve_test restart suite pins bit-identical plans).
//
// On-disk layout under the changelog directory, one pair per problem:
//
//   <name>.snapshot   one JSON object:
//                       {"seq":N,"refs":[...],"coeffs":[...],"csv":CSV}
//                     CSV is the data/problem_io.h serialization of the
//                     problem as of log sequence number N; refs/coeffs
//                     are the registered linear query.
//   <name>.log        one JSON object per line:
//                       {"seq":N,"delta":{...}}   (see WriteDeltaJson)
//                     sequence numbers are strictly increasing and the
//                     portion past the snapshot's seq is contiguous.
//
// Compaction rewrites the snapshot (write <name>.snapshot.tmp, rename
// over <name>.snapshot, then truncate the log).  A crash between the
// rename and the truncate leaves log records at or below the snapshot
// seq; replay skips those, which is the only tolerated overlap.
//
// Replay is FAIL-CLOSED: a malformed line, an out-of-order / duplicated
// sequence number, a gap in the applied portion, or a delta the current
// problem state rejects makes the whole problem fail to load.  A torn
// final line (crash mid-append) is indistinguishable from corruption and
// also fails; operators recover by deleting the bad suffix by hand.
// Nothing half-applied ever becomes visible: ReplayChangelog mutates the
// caller's problem only after the full log has been parsed and validated
// against a scratch copy.

#ifndef FACTCHECK_SERVE_CHANGELOG_H_
#define FACTCHECK_SERVE_CHANGELOG_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/problem.h"
#include "util/json.h"

namespace factcheck {
namespace serve {

class JsonValue;

// --- Delta <-> JSON -------------------------------------------------------

// Serializes `delta` as one JSON object, e.g.
//   {"kind":"replace_dist","object":3,"support":[1,2],"probs":[0.5,0.5]}
//   {"kind":"add_object","label":"x","current":4,"cost":2,
//    "support":[3,5],"probs":[0.25,0.75]}
//   {"kind":"remove_object","object":7}
//   {"kind":"set_cost","object":2,"cost":1.5}
//   {"kind":"set_value","object":0,"value":9}
//   {"kind":"clean","object":4,"value":3}
// The kind strings are DeltaKindName's.
void WriteDeltaJson(const ProblemDelta& delta, JsonWriter& writer);

// Parses the format above.  Never aborts: distribution payloads are
// validated (non-empty, equal lengths, finite values, non-negative finite
// probabilities with positive total mass) before any DiscreteDistribution
// is constructed, so untrusted input yields false + diagnostic instead of
// an FC_CHECK failure.  Structural validity against a concrete problem
// (index ranges, tail-only removal) is ValidateDelta's job, not this one's.
bool DeltaFromJson(const JsonValue& json, ProblemDelta* out,
                   std::string* error);

// Largest sequence number a snapshot, a log record or an update's
// idempotency_seq may carry: 2^53, the top of the range in which a JSON
// number (a double) holds every integer exactly.
constexpr double kMaxSeq = 0x1p53;

// --- Snapshot codec -------------------------------------------------------

// One-line snapshot document for a problem + its registered query as of
// log sequence `seq`.
std::string EncodeSnapshot(const CleaningProblem& problem,
                           const std::vector<int>& refs,
                           const std::vector<double>& coeffs,
                           std::int64_t seq);

// Parses a snapshot document back into its parts (the CSV is returned
// verbatim for data::ProblemFromCsv).  False + diagnostic on malformed
// input; never aborts.
bool DecodeSnapshot(const std::string& text, std::int64_t* seq,
                    std::string* csv, std::vector<int>* refs,
                    std::vector<double>* coeffs, std::string* error);

// One log line (without the trailing newline) for `delta` at sequence
// `seq`.
std::string EncodeLogRecord(std::int64_t seq, const ProblemDelta& delta);

// --- Replay ---------------------------------------------------------------

// Replays `log` (the full text of a <name>.log file) on top of `problem`,
// whose state corresponds to sequence number `base_seq`.  Records with
// seq <= base_seq are skipped (the compaction crash window); the rest
// must be contiguous from base_seq + 1 and are applied in order.  On
// success fills `*last_seq` with the final sequence number (base_seq for
// an empty log) and returns true.  On ANY defect — parse failure, torn
// line, duplicate / out-of-order seq, gap, invalid delta — returns false
// with a diagnostic and leaves `*problem` UNTOUCHED (all-or-nothing: the
// log is fully validated against a scratch copy before the real problem
// is mutated).  Pure function of its inputs; the fuzz harness drives it
// directly.
bool ReplayChangelog(const std::string& log, std::int64_t base_seq,
                     CleaningProblem* problem, std::int64_t* last_seq,
                     std::string* error);

// --- Store ----------------------------------------------------------------

// How durably the store flushes (factcheck_serve --fsync=...):
//   kAlways — fsync after EVERY log record: an acknowledged update is on
//             disk even if the process dies the next instant.
//   kBatch  — group commit: one fsync per AppendRecords batch.  A crash
//             can lose at most the final un-synced batch; whatever
//             survives replays fail-closed and all-or-nothing.
//   kOff    — no fsync anywhere; the OS page cache decides.  Torn final
//             records after a crash are still detected (and refuse to
//             load) — only durability is traded away, never integrity.
// Snapshots under kAlways/kBatch additionally fsync the tmp file before
// the rename and the directory after it, so a published snapshot can
// never be a zero-length ghost.
enum class FsyncPolicy { kAlways, kBatch, kOff };

// "always" / "batch" / "off".
const char* FsyncPolicyName(FsyncPolicy policy);
std::optional<FsyncPolicy> ParseFsyncPolicy(const std::string& name);

// Filesystem half of the changelog: owns the directory, never interprets
// record contents.  Not internally synchronized — PlanningService calls
// it under each problem's run mutex (per-problem files are disjoint, and
// Init/LoadAll happen before the server accepts connections); the fsync
// policy/counter accessors are the exception and are safe from anywhere.
class ChangelogStore {
 public:
  explicit ChangelogStore(std::string dir) : dir_(std::move(dir)) {}

  // Creates the directory if missing (one level).  False + diagnostic if
  // it cannot be created or is not a directory.
  bool Init(std::string* error);

  // Problem names double as file stems, so persistence restricts them to
  // [A-Za-z0-9_.-], non-empty, not starting with '.'.
  static bool ValidName(const std::string& name);

  // Durably replaces <name>.snapshot (tmp + rename) and truncates
  // <name>.log.
  bool SaveSnapshot(const std::string& name, const std::string& snapshot,
                    std::string* error);

  // Appends record lines (newlines added here) to <name>.log as one
  // group-committed batch: records are written in order, fsynced per the
  // policy above, and a failure mid-batch leaves the earlier records on
  // disk (the reconciling snapshot in PlanningService::PersistDeltas
  // cleans up).  An empty batch is a no-op.
  bool AppendRecords(const std::string& name,
                     const std::vector<std::string>& lines,
                     std::string* error);

  // One-record convenience over AppendRecords.
  bool AppendRecord(const std::string& name, const std::string& line,
                    std::string* error);

  void set_fsync_policy(FsyncPolicy policy) { fsync_policy_ = policy; }
  FsyncPolicy fsync_policy() const { return fsync_policy_; }

  // fsync(2) calls issued since construction (log + snapshot + directory
  // syncs) — exported through /stats so the degraded_scaling bench can
  // pin the durability work a fixed request sequence performs.
  std::int64_t fsyncs() const { return fsyncs_.load(); }

  struct LoadedProblem {
    std::string name;
    std::string snapshot;  // contents of <name>.snapshot
    std::string log;       // contents of <name>.log ("" if absent)
  };

  // Reads every <name>.snapshot (+ its log) in the directory, sorted by
  // name so load order is deterministic.  A .log without a .snapshot is
  // an error (snapshots are written at registration, before any log
  // record).
  bool LoadAll(std::vector<LoadedProblem>* out, std::string* error) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string SnapshotPath(const std::string& name) const;
  std::string LogPath(const std::string& name) const;
  // fsync(fd) + count; false + diagnostic on failure.
  bool SyncFd(int fd, const std::string& path, std::string* error);

  std::string dir_;
  FsyncPolicy fsync_policy_ = FsyncPolicy::kBatch;
  std::atomic<std::int64_t> fsyncs_{0};
};

}  // namespace serve
}  // namespace factcheck

#endif  // FACTCHECK_SERVE_CHANGELOG_H_
