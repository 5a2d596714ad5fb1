// plc::store — content-addressed, crash-safe result cache.
//
// Simulation sweeps are embarrassingly re-runnable: the same (scenario
// point, repetition) always produces the same result, because every task
// seed is a pure function of the spec seed. That makes results cacheable
// by *content address*: a stable 128-bit hash over the canonical key
// material — the serialized run-point content, the logical coordinates
// (leg label, repetition), and an explicit result-epoch version salt —
// names a JSON entry file on disk. A warm re-run of a sweep then costs
// one file read per task instead of one simulation, and an interrupted
// sweep resumes from whatever its crashed predecessor already published.
//
// Durability and concurrency contract:
//   - Entries are written atomically (unique temp file + rename), so a
//     crash mid-publish never leaves a torn entry — see util/fs.hpp.
//   - Concurrent writers of the same key race on the rename; since the
//     key addresses the content, both wrote identical bytes and the
//     last writer wins harmlessly.
//   - Readers validate everything before trusting an entry: schema tag,
//     result epoch, echoed key material re-hashed against the digest,
//     and a payload checksum. Anything that fails — truncated JSON, a
//     flipped bit, a stale epoch — is moved into a quarantine directory
//     and reported as a miss, never a crash and never a stale hit.
//
// Key stability: the digest uses util::hash128 (pinned by known-answer
// tests) over canonical serialized text, so keys are identical across
// platforms, across --jobs settings, and across cosmetic reorderings of
// the scenario JSON. Bump kResultEpoch whenever simulation semantics
// change in a way that invalidates previously computed results.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace plc::store {

/// Version salt folded into every key. Bumping it orphans (not deletes)
/// all previously stored entries: old files stay on disk until gc, but
/// no new key can ever address them, and their echoed epoch no longer
/// matches — so they can never be returned as stale hits.
inline constexpr std::int64_t kResultEpoch = 1;

/// Schema tag of the on-disk entry format.
inline constexpr std::string_view kEntrySchema = "plc-store/1";

/// A fully derived cache key: the digest plus the echoed key material it
/// was derived from (written into the entry so verify can re-derive).
struct Key {
  util::Hash128 digest;
  std::string leg;    ///< Logical leg coordinate, e.g. "sim/csma-ca/n8".
  std::string point;  ///< Canonical JSON of the run-point content.
  std::int64_t rep = 0;
};

/// Parses `text` and re-serializes it in the store's canonical form:
/// object members sorted by name at every nesting level, the writer's
/// number spelling, no cosmetic whitespace differences. Key digests and
/// payload checksums are computed over this form, so field order and
/// formatting never change a key — and a parse → dump round trip of a
/// stored entry reproduces the hashed bytes exactly. Throws plc::Error
/// on malformed JSON.
std::string canonical_json(std::string_view text);

/// Derives the key for (leg, point, rep) under the current kResultEpoch.
/// `point_json` is canonicalized (canonical_json) before hashing, so any
/// serialization of the same point content yields the same key.
Key make_key(std::string_view leg, std::string_view point_json,
             std::int64_t rep);

/// Monotonic operation counters of one ResultStore instance (not the
/// disk). All fields are totals since construction; safe to read while
/// workers are publishing.
struct Counters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t publishes = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  std::int64_t quarantined = 0;
};

/// What is on disk right now (scan/stats/verify/gc results).
struct DiskUsage {
  std::int64_t entries = 0;
  std::int64_t bytes = 0;
  std::int64_t quarantined_entries = 0;
  std::int64_t quarantined_bytes = 0;
};

struct VerifyResult {
  std::int64_t checked = 0;
  std::int64_t ok = 0;
  std::int64_t quarantined = 0;  ///< Entries that failed validation.
};

struct GcResult {
  std::int64_t bytes_before = 0;
  std::int64_t bytes_after = 0;
  std::int64_t removed = 0;
};

/// The on-disk store. One instance may be shared by many worker threads:
/// lookup/publish touch disjoint files (or race benignly on identical
/// content) and the counters are atomic.
class ResultStore {
 public:
  /// Opens (and lazily creates) a store rooted at `root`.
  explicit ResultStore(std::string root);

  const std::string& root() const { return root_; }

  /// Returns the validated payload for `key`, or nullopt on a miss.
  /// Entries that exist but fail validation (bad schema, wrong epoch,
  /// key-material mismatch, checksum mismatch, unparseable JSON) are
  /// quarantined and reported as a miss.
  std::optional<obs::JsonValue> lookup(const Key& key);

  /// Writes the entry for `key` with `payload_json` (a complete JSON
  /// value) atomically into the fanout layout. Safe to call from
  /// concurrent workers.
  void publish(const Key& key, std::string_view payload_json);

  /// Full path of the entry file for `key`:
  /// `<root>/<hex[0:2]>/<hex>.json`. Exposed for tests and tooling.
  std::string entry_path(const Key& key) const;
  std::string quarantine_dir() const;

  Counters counters() const;

  /// Registers this store's counters into `registry` (series
  /// "store.hits", "store.misses", "store.publishes", "store.bytes_read",
  /// "store.bytes_written", "store.quarantined"). Adds on top of whatever
  /// the registry already holds, matching Counter semantics.
  void export_metrics(obs::Registry& registry) const;

  /// Walks the store and totals entry/quarantine sizes.
  DiskUsage scan() const;

  /// Re-validates every entry on disk exactly like lookup would,
  /// quarantining the ones that fail.
  VerifyResult verify();

  /// Size-capped eviction: removes oldest entries (by file mtime, path
  /// as tie-break) until the entry bytes fit under `max_bytes`.
  /// Quarantined files are always removed. max_bytes = 0 empties the
  /// store.
  GcResult gc(std::int64_t max_bytes);

 private:
  /// Validates one entry file against `expect` (nullptr: re-derive the
  /// expectation from the entry's own echoed key material). On success
  /// returns the payload; on failure quarantines the file and returns
  /// nullopt.
  std::optional<obs::JsonValue> load_validated(const std::string& path,
                                               const Key* expect);

  void quarantine(const std::string& path);

  std::string root_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> publishes_{0};
  std::atomic<std::int64_t> bytes_read_{0};
  std::atomic<std::int64_t> bytes_written_{0};
  std::atomic<std::int64_t> quarantined_{0};
};

/// Serializes a metrics snapshot with raw-moment fidelity. The report
/// format (obs::Snapshot::write_into) emits derived stddev, which cannot
/// reconstruct the accumulator bitwise; cached payloads must, so a warm
/// run's report is byte-identical to the cold run's. Histograms are
/// therefore stored as their raw Welford moments (count/mean/m2/min/max/
/// sum) and doubles round-trip exactly through the shortest-round-trip
/// JSON number codec.
void write_metrics_payload(obs::JsonWriter& json,
                           const obs::Snapshot& snapshot);

/// Inverse of write_metrics_payload. Throws plc::Error on malformed
/// input (callers treat that as a corrupt entry), including a counter
/// value or histogram count that read_count rejects.
obs::Snapshot read_metrics_payload(const obs::JsonValue& value);

/// Reads an integer count (event totals, nanoseconds, MPDU counters)
/// from a store payload, which is untrusted input: the number must be
/// finite, integral and in [0, 2^53], the range where a double holds
/// every integer exactly. Anything else throws plc::Error, which the
/// payload decoders treat like a shape mismatch (the task re-runs and
/// re-publishes). A bare cast would be undefined behaviour for a
/// negative, huge or non-finite value.
std::int64_t read_count(const obs::JsonValue& value);

}  // namespace plc::store
