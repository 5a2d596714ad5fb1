#include "store/result_store.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "obs/profiler.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace plc::store {

namespace fs = std::filesystem;

namespace {

/// Seed for the payload checksum — a different hash family than the key
/// digest, so a payload can never masquerade as its own key material.
constexpr std::uint64_t kChecksumSeed = 0x706c632d63686b73ULL;  // "plc-chks"

/// Canonical byte string the key digest is computed over. Every field is
/// newline-terminated and prefixed so no two distinct (leg, point, rep,
/// epoch) tuples can serialize to the same bytes.
std::string key_material(std::string_view leg, std::string_view point_json,
                         std::int64_t rep) {
  std::string material;
  material.reserve(point_json.size() + leg.size() + 64);
  material += kEntrySchema;
  material += "\nepoch=";
  material += std::to_string(kResultEpoch);
  material += "\nleg=";
  material += leg;
  material += "\nrep=";
  material += std::to_string(rep);
  material += "\npoint=";
  material += point_json;
  material += "\n";
  return material;
}

std::int64_t file_size_or_zero(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(size);
}

bool is_entry_file(const fs::directory_entry& entry) {
  return entry.is_regular_file() && entry.path().extension() == ".json";
}

const obs::JsonValue* find_member(const obs::JsonValue& doc,
                                  std::string_view name,
                                  obs::JsonValue::Kind kind) {
  const obs::JsonValue* value = doc.find(name);
  if (value == nullptr || value->kind != kind) return nullptr;
  return value;
}

/// Recursively sorts object members by name so canonical_json is
/// order-insensitive. stable_sort keeps duplicate keys (which the
/// writers never produce, but a hand-edited file could) deterministic.
void sort_members(obs::JsonValue& value) {
  if (value.kind == obs::JsonValue::Kind::kObject) {
    std::stable_sort(value.members.begin(), value.members.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (auto& [name, member] : value.members) sort_members(member);
  } else if (value.kind == obs::JsonValue::Kind::kArray) {
    for (obs::JsonValue& item : value.items) sort_members(item);
  }
}

}  // namespace

std::string canonical_json(std::string_view text) {
  obs::JsonValue value = obs::parse_json(text);
  sort_members(value);
  return value.dump();
}

Key make_key(std::string_view leg, std::string_view point_json,
             std::int64_t rep) {
  Key key;
  key.leg = std::string(leg);
  key.point = canonical_json(point_json);
  key.rep = rep;
  key.digest = util::hash128(key_material(leg, key.point, rep));
  return key;
}

ResultStore::ResultStore(std::string root) : root_(std::move(root)) {
  util::require(!root_.empty(), "ResultStore: root path must not be empty");
}

std::string ResultStore::entry_path(const Key& key) const {
  const std::string hex = key.digest.to_hex();
  return root_ + "/" + hex.substr(0, 2) + "/" + hex + ".json";
}

std::string ResultStore::quarantine_dir() const {
  return root_ + "/quarantine";
}

std::optional<obs::JsonValue> ResultStore::lookup(const Key& key) {
  PROF_SCOPE("store.lookup");
  const std::string path = entry_path(key);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  auto payload = load_validated(path, &key);
  if (payload.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return payload;
}

void ResultStore::publish(const Key& key, std::string_view payload_json) {
  PROF_SCOPE("store.publish");
  // Canonicalize before hashing and writing: the stored bytes are then a
  // fixed point of parse → dump, so a reader re-deriving the checksum
  // from its parsed view reproduces exactly what was hashed here.
  const std::string payload = canonical_json(payload_json);
  const std::string checksum = util::hash128(payload, kChecksumSeed).to_hex();

  std::ostringstream buffer;
  obs::JsonWriter json(buffer);
  json.begin_object();
  json.field("schema", kEntrySchema);
  json.field("epoch", kResultEpoch);
  json.field("key", key.digest.to_hex());
  json.field("leg", key.leg);
  json.field("rep", key.rep);
  json.key("point").raw(key.point);
  json.field("payload_checksum", checksum);
  json.key("payload").raw(payload);
  json.end_object();

  const std::string text = buffer.str();
  util::write_file_atomic(entry_path(key), text, /*create_dirs=*/true);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(static_cast<std::int64_t>(text.size()),
                           std::memory_order_relaxed);
}

std::optional<obs::JsonValue> ResultStore::load_validated(
    const std::string& path, const Key* expect) {
  std::string text;
  obs::JsonValue doc;
  try {
    text = util::read_file(path);
    doc = obs::parse_json(text);
  } catch (const Error&) {
    quarantine(path);
    return std::nullopt;
  }
  bytes_read_.fetch_add(static_cast<std::int64_t>(text.size()),
                        std::memory_order_relaxed);

  const auto* schema =
      find_member(doc, "schema", obs::JsonValue::Kind::kString);
  const auto* epoch = find_member(doc, "epoch", obs::JsonValue::Kind::kNumber);
  const auto* key_hex = find_member(doc, "key", obs::JsonValue::Kind::kString);
  const auto* leg = find_member(doc, "leg", obs::JsonValue::Kind::kString);
  const auto* rep = find_member(doc, "rep", obs::JsonValue::Kind::kNumber);
  const obs::JsonValue* point = doc.find("point");
  const auto* checksum =
      find_member(doc, "payload_checksum", obs::JsonValue::Kind::kString);
  const obs::JsonValue* payload = doc.find("payload");

  if (schema == nullptr || epoch == nullptr || key_hex == nullptr ||
      leg == nullptr || rep == nullptr || point == nullptr ||
      checksum == nullptr || payload == nullptr ||
      schema->text != kEntrySchema ||
      epoch->number != static_cast<double>(kResultEpoch)) {
    quarantine(path);
    return std::nullopt;
  }

  // Re-derive the digest from the echoed key material. This both pins
  // the entry to its filename (a misplaced or renamed file fails) and
  // catches bit flips anywhere in the key fields.
  const Key derived = make_key(
      leg->text, point->dump(), static_cast<std::int64_t>(rep->number));
  const std::string derived_hex = derived.digest.to_hex();
  const std::string stem = fs::path(path).stem().string();
  if (derived_hex != key_hex->text || derived_hex != stem ||
      (expect != nullptr && derived.digest != expect->digest)) {
    quarantine(path);
    return std::nullopt;
  }

  // The payload checksum is over the payload's canonical serialization;
  // publish() stored exactly that form, so dump() of the parsed payload
  // (same writer, member order preserved from the file) reproduces the
  // hashed bytes.
  const std::string payload_text = payload->dump();
  if (util::hash128(payload_text, kChecksumSeed).to_hex() != checksum->text) {
    quarantine(path);
    return std::nullopt;
  }

  return *payload;
}

void ResultStore::quarantine(const std::string& path) {
  std::error_code ec;
  fs::create_directories(quarantine_dir(), ec);
  const fs::path target =
      fs::path(quarantine_dir()) / fs::path(path).filename();
  fs::rename(path, target, ec);
  if (ec) {
    // Cross-device or permission trouble: removing the bad entry is the
    // fallback that still guarantees "never a stale hit".
    fs::remove(path, ec);
  }
  quarantined_.fetch_add(1, std::memory_order_relaxed);
}

Counters ResultStore::counters() const {
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.publishes = publishes_.load(std::memory_order_relaxed);
  c.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  c.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  c.quarantined = quarantined_.load(std::memory_order_relaxed);
  return c;
}

void ResultStore::export_metrics(obs::Registry& registry) const {
  const Counters c = counters();
  registry.counter("store.hits").add(c.hits);
  registry.counter("store.misses").add(c.misses);
  registry.counter("store.publishes").add(c.publishes);
  registry.counter("store.bytes_read").add(c.bytes_read);
  registry.counter("store.bytes_written").add(c.bytes_written);
  registry.counter("store.quarantined").add(c.quarantined);
}

DiskUsage ResultStore::scan() const {
  DiskUsage usage;
  std::error_code ec;
  for (fs::directory_iterator dir(root_, ec), end; !ec && dir != end;
       dir.increment(ec)) {
    if (!dir->is_directory()) continue;
    const bool in_quarantine = dir->path().filename() == "quarantine";
    std::error_code inner;
    for (fs::directory_iterator file(dir->path(), inner), fend;
         !inner && file != fend; file.increment(inner)) {
      if (!is_entry_file(*file)) continue;
      const std::int64_t size = file_size_or_zero(file->path());
      if (in_quarantine) {
        usage.quarantined_entries += 1;
        usage.quarantined_bytes += size;
      } else {
        usage.entries += 1;
        usage.bytes += size;
      }
    }
  }
  return usage;
}

VerifyResult ResultStore::verify() {
  PROF_SCOPE("store.verify");
  VerifyResult result;
  std::error_code ec;
  std::vector<std::string> paths;
  for (fs::directory_iterator dir(root_, ec), end; !ec && dir != end;
       dir.increment(ec)) {
    if (!dir->is_directory() || dir->path().filename() == "quarantine") {
      continue;
    }
    std::error_code inner;
    for (fs::directory_iterator file(dir->path(), inner), fend;
         !inner && file != fend; file.increment(inner)) {
      if (is_entry_file(*file)) paths.push_back(file->path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    result.checked += 1;
    if (load_validated(path, nullptr).has_value()) {
      result.ok += 1;
    } else {
      result.quarantined += 1;
    }
  }
  return result;
}

GcResult ResultStore::gc(std::int64_t max_bytes) {
  PROF_SCOPE("store.gc");
  GcResult result;

  // Quarantined files hold no recoverable data; gc always drops them.
  std::error_code ec;
  for (fs::directory_iterator file(quarantine_dir(), ec), fend;
       !ec && file != fend; file.increment(ec)) {
    std::error_code remove_ec;
    if (fs::remove(file->path(), remove_ec) && !remove_ec) {
      result.removed += 1;
    }
  }

  struct EntryFile {
    std::string path;
    fs::file_time_type mtime;
    std::int64_t size = 0;
  };
  std::vector<EntryFile> files;
  ec.clear();
  for (fs::directory_iterator dir(root_, ec), end; !ec && dir != end;
       dir.increment(ec)) {
    if (!dir->is_directory() || dir->path().filename() == "quarantine") {
      continue;
    }
    std::error_code inner;
    for (fs::directory_iterator file(dir->path(), inner), fend;
         !inner && file != fend; file.increment(inner)) {
      if (!is_entry_file(*file)) continue;
      std::error_code stat_ec;
      const auto mtime = fs::last_write_time(file->path(), stat_ec);
      files.push_back(EntryFile{file->path().string(),
                                stat_ec ? fs::file_time_type::min() : mtime,
                                file_size_or_zero(file->path())});
    }
  }
  for (const EntryFile& file : files) result.bytes_before += file.size;
  result.bytes_after = result.bytes_before;

  // Oldest first; path as tie-break so eviction order is deterministic
  // when a whole sweep publishes within one mtime granule.
  std::sort(files.begin(), files.end(),
            [](const EntryFile& a, const EntryFile& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  for (const EntryFile& file : files) {
    if (result.bytes_after <= max_bytes) break;
    std::error_code remove_ec;
    if (fs::remove(file.path, remove_ec) && !remove_ec) {
      result.bytes_after -= file.size;
      result.removed += 1;
    }
  }
  return result;
}

void write_metrics_payload(obs::JsonWriter& json,
                           const obs::Snapshot& snapshot) {
  json.begin_array();
  for (const obs::MetricSample& sample : snapshot.samples()) {
    json.begin_object();
    json.field("name", sample.name);
    json.key("labels").begin_array();
    for (const auto& [label, value] : sample.labels) {
      json.begin_array().value(label).value(value).end_array();
    }
    json.end_array();
    json.field("kind", obs::to_string(sample.kind));
    if (sample.kind == obs::MetricKind::kHistogram) {
      const util::RunningStats& stats = sample.distribution;
      json.field("count", stats.count());
      json.field("mean", stats.mean());
      json.field("m2", stats.m2());
      json.field("min", stats.min());
      json.field("max", stats.max());
      json.field("sum", stats.sum());
    } else {
      json.field("value", sample.value);
    }
    json.end_object();
  }
  json.end_array();
}

obs::Snapshot read_metrics_payload(const obs::JsonValue& value) {
  util::require(value.is_array(), "metrics payload: expected array");
  std::vector<obs::MetricSample> samples;
  samples.reserve(value.items.size());
  for (const obs::JsonValue& item : value.items) {
    util::require(item.is_object(), "metrics payload: expected sample object");
    obs::MetricSample sample;
    const auto* name = find_member(item, "name", obs::JsonValue::Kind::kString);
    const auto* labels =
        find_member(item, "labels", obs::JsonValue::Kind::kArray);
    const auto* kind = find_member(item, "kind", obs::JsonValue::Kind::kString);
    util::require(name != nullptr && labels != nullptr && kind != nullptr,
                  "metrics payload: sample missing name/labels/kind");
    sample.name = name->text;
    for (const obs::JsonValue& label : labels->items) {
      util::require(label.is_array() && label.items.size() == 2 &&
                        label.items[0].is_string() &&
                        label.items[1].is_string(),
                    "metrics payload: label must be a [key, value] pair");
      sample.labels.emplace_back(label.items[0].text, label.items[1].text);
    }
    if (kind->text == "histogram") {
      sample.kind = obs::MetricKind::kHistogram;
      const auto* count =
          find_member(item, "count", obs::JsonValue::Kind::kNumber);
      const auto* mean =
          find_member(item, "mean", obs::JsonValue::Kind::kNumber);
      const auto* m2 = find_member(item, "m2", obs::JsonValue::Kind::kNumber);
      const auto* min = find_member(item, "min", obs::JsonValue::Kind::kNumber);
      const auto* max = find_member(item, "max", obs::JsonValue::Kind::kNumber);
      const auto* sum = find_member(item, "sum", obs::JsonValue::Kind::kNumber);
      util::require(count != nullptr && mean != nullptr && m2 != nullptr &&
                        min != nullptr && max != nullptr && sum != nullptr,
                    "metrics payload: histogram missing raw moments");
      sample.distribution = util::RunningStats::from_moments(
          read_count(*count), mean->number, m2->number, min->number,
          max->number, sum->number);
    } else {
      util::require(kind->text == "counter" || kind->text == "gauge",
                    "metrics payload: unknown sample kind");
      sample.kind = kind->text == "counter" ? obs::MetricKind::kCounter
                                            : obs::MetricKind::kGauge;
      const auto* sample_value =
          find_member(item, "value", obs::JsonValue::Kind::kNumber);
      util::require(sample_value != nullptr,
                    "metrics payload: sample missing value");
      // Registry::absorb casts a counter's value to an integer.
      sample.value = sample.kind == obs::MetricKind::kCounter
                         ? static_cast<double>(read_count(*sample_value))
                         : sample_value->number;
    }
    samples.push_back(std::move(sample));
  }
  return obs::Snapshot(std::move(samples));
}

std::int64_t read_count(const obs::JsonValue& value) {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  util::require(value.is_number() && std::isfinite(value.number) &&
                    value.number >= 0.0 && value.number <= kMaxExact &&
                    std::trunc(value.number) == value.number,
                "store payload: expected an integer count in [0, 2^53]");
  return static_cast<std::int64_t>(value.number);
}

}  // namespace plc::store
