#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "obs/json.hpp"
#include "util/strings.hpp"

namespace plc::obs {

namespace {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Renders nanoseconds with an adaptive unit ("1.23s", "45.6ms", ...).
std::string format_ns(double ns) {
  if (ns >= 1e9) return util::format_fixed(ns / 1e9, 3) + "s";
  if (ns >= 1e6) return util::format_fixed(ns / 1e6, 3) + "ms";
  if (ns >= 1e3) return util::format_fixed(ns / 1e3, 3) + "us";
  return util::format_fixed(ns, 0) + "ns";
}

}  // namespace

std::atomic<bool> Profiler::enabled_{false};

/// One node of a thread's scope tree.
struct ProfileNode {
  const char* name = "";
  ProfileNode* parent = nullptr;
  std::vector<ProfileNode*> children;
  std::int64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t min_ns = 0;
  std::int64_t max_ns = 0;
};

/// One captured scope invocation (for the Chrome exporter).
struct CapturedEvent {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< Relative to the profiler epoch.
  std::int64_t dur_ns = 0;
  int thread_index = 0;
};

struct ThreadState {
  explicit ThreadState(int index) : index(index) {
    root.name = "";
  }
  int index;
  std::string thread_name;  ///< Chrome trace track label (owned copy).
  ProfileNode root;  ///< Sentinel; real scopes hang below it.
  ProfileNode* current = &root;
  std::deque<ProfileNode> arena;  ///< Stable addresses.
};

struct Profiler::Impl {
  mutable std::mutex mutex;
  std::vector<std::unique_ptr<ThreadState>> threads;
  std::int64_t epoch_ns = wall_ns();

  // Event capture ring (guarded by `mutex`; capture is opt-in and the
  // instrumented phases are coarse, so contention is negligible). The
  // flag itself is atomic so the lock-free check in exit() is clean
  // under ThreadSanitizer.
  std::atomic<bool> capture{false};
  std::size_t capacity = 0;
  std::vector<CapturedEvent> ring;
  std::size_t head = 0;
  std::size_t size = 0;
  std::int64_t recorded = 0;

  ThreadState& local_state();
};

namespace {
thread_local ThreadState* t_state = nullptr;
/// Bumped on reset() so stale thread_local pointers are re-acquired.
std::atomic<std::uint64_t> g_generation{0};
thread_local std::uint64_t t_generation = ~std::uint64_t{0};
}  // namespace

ThreadState& Profiler::Impl::local_state() {
  if (t_state == nullptr ||
      t_generation != g_generation.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mutex);
    threads.push_back(
        std::make_unique<ThreadState>(static_cast<int>(threads.size())));
    t_state = threads.back().get();
    t_generation = g_generation.load(std::memory_order_acquire);
  }
  return *t_state;
}

Profiler::Profiler() : impl_(new Impl) {
  const char* env = std::getenv("PLC_PROFILE");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    set_enabled(true);
  }
}

Profiler::~Profiler() { delete impl_; }

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

void* Profiler::enter(const char* name, std::int64_t* start_ns) {
  Impl& impl = *instance().impl_;
  ThreadState& state = impl.local_state();
  ProfileNode* parent = state.current;
  ProfileNode* node = nullptr;
  for (ProfileNode* child : parent->children) {
    // Pointer identity first (same literal), strcmp as the cross-TU
    // fallback for identical literals at different addresses.
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      node = child;
      break;
    }
  }
  if (node == nullptr) {
    state.arena.emplace_back();
    node = &state.arena.back();
    node->name = name;
    node->parent = parent;
    parent->children.push_back(node);
  }
  state.current = node;
  *start_ns = wall_ns();
  return node;
}

void Profiler::exit(void* opaque, std::int64_t start_ns) {
  const std::int64_t dur = wall_ns() - start_ns;
  ProfileNode* node = static_cast<ProfileNode*>(opaque);
  if (node->calls == 0 || dur < node->min_ns) node->min_ns = dur;
  if (dur > node->max_ns) node->max_ns = dur;
  ++node->calls;
  node->total_ns += dur;

  Impl& impl = *instance().impl_;
  ThreadState& state = impl.local_state();
  // Unwind to the parent; tolerate scopes that were opened while the
  // profiler was disabled (current may already be an ancestor).
  if (state.current == node) state.current = node->parent;

  if (impl.capture.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(impl.mutex);
    if (impl.capacity > 0) {
      CapturedEvent event{node->name, start_ns - impl.epoch_ns, dur,
                          state.index};
      if (impl.ring.size() < impl.capacity) {
        impl.ring.push_back(event);
      } else {
        impl.ring[impl.head] = event;
      }
      impl.head = (impl.head + 1) % impl.capacity;
      impl.size = impl.ring.size();
      ++impl.recorded;
    }
  }
}

void Profiler::set_thread_name(const char* name) {
  ThreadState& state = impl_->local_state();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  state.thread_name = name;
}

void Profiler::set_capture_events(bool capture, std::size_t capacity) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->capture = capture;
  impl_->capacity = capture ? capacity : 0;
  impl_->ring.clear();
  impl_->ring.reserve(impl_->capacity);
  impl_->head = 0;
  impl_->size = 0;
  impl_->recorded = 0;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->threads.clear();
  impl_->ring.clear();
  impl_->head = 0;
  impl_->size = 0;
  impl_->recorded = 0;
  impl_->epoch_ns = wall_ns();
  g_generation.fetch_add(1, std::memory_order_release);
}

std::int64_t Profiler::captured_events() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return static_cast<std::int64_t>(impl_->size);
}

std::int64_t Profiler::dropped_events() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->recorded - static_cast<std::int64_t>(impl_->size);
}

namespace {

/// Marks a top-level scope's parent in merge_node.
constexpr std::size_t kTopLevel = static_cast<std::size_t>(-1);

/// Merges one thread tree into the path-keyed aggregate. `children` lists
/// every merged node's children and `top_level` the root scopes, each in
/// first-seen order; `parent` is the merged parent's slot (kTopLevel for
/// a root scope).
void merge_node(const ProfileNode& node, const std::string& parent_path,
                std::size_t parent, int depth,
                std::vector<ProfileNodeStats>& nodes,
                std::vector<std::vector<std::size_t>>& children,
                std::vector<std::size_t>& top_level,
                std::map<std::string, std::size_t>& index) {
  const std::string path =
      parent_path.empty() ? std::string(node.name)
                          : parent_path + "/" + node.name;
  const auto it = index.find(path);
  std::size_t slot;
  if (it == index.end()) {
    slot = nodes.size();
    index.emplace(path, slot);
    ProfileNodeStats stats;
    stats.path = path;
    stats.name = node.name;
    stats.depth = depth;
    stats.min_ns = node.min_ns;
    stats.max_ns = node.max_ns;
    nodes.push_back(std::move(stats));
    children.emplace_back();
    (parent == kTopLevel ? top_level : children[parent]).push_back(slot);
  } else {
    slot = it->second;
    if (node.calls > 0) {
      if (nodes[slot].calls == 0 || node.min_ns < nodes[slot].min_ns) {
        nodes[slot].min_ns = node.min_ns;
      }
      if (node.max_ns > nodes[slot].max_ns) {
        nodes[slot].max_ns = node.max_ns;
      }
    }
  }
  nodes[slot].calls += node.calls;
  nodes[slot].total_ns += node.total_ns;
  std::int64_t child_total = 0;
  for (const ProfileNode* child : node.children) {
    child_total += child->total_ns;
    merge_node(*child, path, slot, depth + 1, nodes, children, top_level,
               index);
  }
  nodes[slot].self_ns += node.total_ns - child_total;
}

/// Appends the merged subtree at `slot` to `out`, parents first.
void emit_subtree(std::size_t slot, std::vector<ProfileNodeStats>& nodes,
                  const std::vector<std::vector<std::size_t>>& children,
                  std::vector<ProfileNodeStats>& out) {
  out.push_back(std::move(nodes[slot]));
  for (const std::size_t child : children[slot]) {
    emit_subtree(child, nodes, children, out);
  }
}

}  // namespace

std::vector<std::string> Profiler::current_stack() {
  std::vector<std::string> stack;
  const ThreadState* state = t_state;
  if (state == nullptr) return stack;
  for (const ProfileNode* node = state->current;
       node != nullptr && node->parent != nullptr; node = node->parent) {
    stack.emplace_back(node->name);
  }
  std::reverse(stack.begin(), stack.end());
  return stack;
}

ProfileSnapshot Profiler::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<ProfileNodeStats> merged;
  std::vector<std::vector<std::size_t>> children;
  std::vector<std::size_t> top_level;
  std::map<std::string, std::size_t> index;
  for (const auto& thread : impl_->threads) {
    for (const ProfileNode* top : thread->root.children) {
      merge_node(*top, "", kTopLevel, 0, merged, children, top_level, index);
    }
  }
  // Merge order is not tree order: a path that first appears in a later
  // thread was appended last. Emit the merged tree depth-first, so every
  // node follows its own parent.
  ProfileSnapshot snapshot;
  snapshot.nodes_.reserve(merged.size());
  for (const std::size_t slot : top_level) {
    emit_subtree(slot, merged, children, snapshot.nodes_);
  }
  return snapshot;
}

void Profiler::write_chrome_trace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  JsonWriter json(out);
  json.begin_array();
  json.begin_object()
      .field("ph", "M")
      .field("pid", 1)
      .field("name", "process_name")
      .key("args")
      .begin_object()
      .field("name", "profiler")
      .end_object()
      .end_object();
  // One thread-name metadata record per named thread (parallel-runner
  // workers name themselves), so Perfetto shows "worker N" tracks.
  for (const auto& thread : impl_->threads) {
    if (thread->thread_name.empty()) continue;
    json.begin_object()
        .field("ph", "M")
        .field("pid", 1)
        .field("tid", thread->index)
        .field("name", "thread_name")
        .key("args")
        .begin_object()
        .field("name", thread->thread_name)
        .end_object()
        .end_object();
  }
  // Oldest first.
  const std::size_t start =
      impl_->size < impl_->capacity ? 0 : impl_->head;
  for (std::size_t i = 0; i < impl_->size; ++i) {
    const CapturedEvent& event =
        impl_->ring[(start + i) % impl_->ring.size()];
    json.begin_object()
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", event.thread_index)
        .field("name", event.name)
        .field("cat", "profile")
        .field("ts", static_cast<double>(event.start_ns) / 1e3)
        .field("dur", static_cast<double>(event.dur_ns) / 1e3)
        .end_object();
  }
  json.end_array();
  out << '\n';
}

const ProfileNodeStats* ProfileSnapshot::find(std::string_view path) const {
  for (const ProfileNodeStats& node : nodes_) {
    if (node.path == path) return &node;
  }
  return nullptr;
}

void ProfileSnapshot::write_text_tree(std::ostream& out) const {
  if (nodes_.empty()) {
    out << "(profiler recorded no scopes; set PLC_PROFILE=1 or call "
           "obs::Profiler::set_enabled(true))\n";
    return;
  }
  std::size_t width = 0;
  for (const ProfileNodeStats& node : nodes_) {
    width = std::max(width,
                     node.name.size() + 2 * static_cast<std::size_t>(node.depth));
  }
  for (const ProfileNodeStats& node : nodes_) {
    std::string label(2 * static_cast<std::size_t>(node.depth), ' ');
    label += node.name;
    label.resize(width, ' ');
    out << label << "  calls=" << node.calls
        << "  total=" << format_ns(static_cast<double>(node.total_ns))
        << "  self=" << format_ns(static_cast<double>(node.self_ns))
        << "  mean=" << format_ns(node.mean_ns())
        << "  min=" << format_ns(static_cast<double>(node.min_ns))
        << "  max=" << format_ns(static_cast<double>(node.max_ns)) << "\n";
  }
}

void ProfileSnapshot::write_into(JsonWriter& json) const {
  json.begin_array();
  for (const ProfileNodeStats& node : nodes_) {
    json.begin_object()
        .field("path", node.path)
        .field("name", node.name)
        .field("depth", node.depth)
        .field("calls", node.calls)
        .field("total_ns", node.total_ns)
        .field("self_ns", node.self_ns)
        .field("min_ns", node.min_ns)
        .field("max_ns", node.max_ns)
        .end_object();
  }
  json.end_array();
}

void ProfileSnapshot::write_json(std::ostream& out) const {
  JsonWriter json(out);
  write_into(json);
  out << '\n';
}

}  // namespace plc::obs
