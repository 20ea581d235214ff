// Layer-attributed tracer for the perfbench workloads.
//
// It runs the same campaigns as `cadapt sweep` and `cadapt serve`, but
// through the libraries' public seams, so that time and counts can be
// attributed to the src/ modules:
//   * ratio cells: the core/workloads.hpp source factories, wrapped in a
//     forwarding profile::BoxSource, driven by
//     engine::make_regular_trial_runner and engine::run_single_trial;
//   * program cells: campaign::make_program_runner and run_single_trial;
//   * durable writes: a timing robust::IoBackend decorator;
//   * the daemon: serve::run_daemon with that decorator and an
//     obs::TraceSink that timestamps job_accepted / cell_scheduled /
//     sweep_cell / job_done.
// Spans (name, start, end, parent, cell or job id) are kept in memory and
// written out at exit, next to one JSON object of layer metrics.
//
// usage:
//   perfbench_trace sweep --jobs J --out-dir D --metrics M --spans S
//                   MANIFEST...
//     Runs each manifest as one campaign and writes D/<i>.json, the same
//     report bytes `cadapt sweep` writes apart from the timing fields.
//   perfbench_trace serve --jobs J --spool DIR --socket PATH --metrics M
//                   --spans S
//     Hosts the daemon until SIGTERM, then writes metrics and spans.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "campaign/cell_runner.hpp"
#include "campaign/manifest.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/sweep.hpp"
#include "core/workloads.hpp"
#include "engine/montecarlo.hpp"
#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "profile/box_source.hpp"
#include "profile/distributions.hpp"
#include "profile/transforms.hpp"
#include "robust/cancel.hpp"
#include "robust/io.hpp"
#include "serve/daemon.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cadapt;

std::uint64_t now_ns() { return obs::steady_now_ns(); }

std::uint64_t this_thread_tag() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

// ---- spans ------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;          ///< "<layer>.<what>"
  std::string owner;         ///< cell or job id; empty for run-level spans
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t thread = 0;
};

class SpanLog {
 public:
  std::uint64_t next_id() { return ++last_id_; }

  void record(Span span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  std::atomic<std::uint64_t> last_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

/// A span recorded when the scope closes (or at close()).
class Scope {
 public:
  Scope(std::string name, std::uint64_t parent, std::string owner = {})
      : id_(g_spans.next_id()),
        parent_(parent),
        name_(std::move(name)),
        owner_(std::move(owner)),
        start_ns_(now_ns()) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }
  std::uint64_t start_ns() const { return start_ns_; }

  /// Ends the span; returns its duration.
  std::uint64_t close() {
    if (end_ns_ == 0) {
      end_ns_ = now_ns();
      g_spans.record(
          {id_, parent_, name_, owner_, start_ns_, end_ns_, this_thread_tag()});
    }
    return end_ns_ - start_ns_;
  }

 private:
  std::uint64_t id_;
  std::uint64_t parent_;
  std::string name_;
  std::string owner_;
  std::uint64_t start_ns_;
  std::uint64_t end_ns_ = 0;
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw util::IoError("cannot write --spans " + path);
  for (const Span& span : spans) {
    obs::Event event("span");
    event.u64("id", span.id)
        .u64("parent", span.parent)
        .str("name", span.name)
        .str("owner", span.owner)
        .u64("start_ns", span.start_ns)
        .u64("end_ns", span.end_ns)
        .u64("thread", span.thread);
    os << obs::to_jsonl(event) << "\n";
  }
}

// ---- metrics ----------------------------------------------------------

class Metrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw util::IoError("cannot write --metrics " + path);
    os.precision(17);
    os << "{";
    const char* sep = "";
    for (const auto& [name, value] : values_) {
      os << sep << "\"" << name << "\": " << value;
      sep = ", ";
    }
    os << "}\n";
  }

 private:
  std::map<std::string, double> values_;
};

/// Sets `<layer>.self_share` for every layer and obs.unattributed_share.
/// A span's self time is its duration minus the union of its children's
/// intervals; a layer's share is its spans' self time over the self time
/// of all spans. The unattributed share is the root's self time over its
/// duration.
void set_self_times(Metrics& out, const std::vector<Span>& spans,
                    std::uint64_t root_id) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) children[span.parent].push_back(&span);
  std::map<std::string, double> self_ns;
  double total_ns = 0, root_share = 0;
  for (const Span& span : spans) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        const std::uint64_t lo = std::max(child->start_ns, span.start_ns);
        const std::uint64_t hi = std::min(child->end_ns, span.end_ns);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0, reach = 0;
    for (const auto& [lo, hi] : cover) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    const double self = duration - static_cast<double>(covered);
    total_ns += self;
    if (span.id == root_id) {
      root_share = duration > 0 ? self / duration : 0;
    } else {
      self_ns[span.name.substr(0, span.name.find('.'))] += self;
    }
  }
  for (const auto& [layer, ns] : self_ns) {
    out.set(layer + ".self_share", total_ns > 0 ? ns / total_ns : 0);
  }
  out.set("obs.unattributed_share", root_share);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const auto mid =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(values.begin(), mid)) / 2;
}

// ---- robust: timing IoBackend decorator --------------------------------

/// Forwards every call to the system backend, counts writes, fsyncs and
/// bytes, and records one span per call. A call's span is parented to the
/// span registered for its file's owner (the job id in the file name),
/// else to the default parent.
class TimingIo final : public robust::IoBackend {
 public:
  explicit TimingIo(std::uint64_t parent)
      : inner_(robust::system_io()), default_parent_(parent) {}

  int open_trunc(const char* path) override {
    return note_open(
        timed("robust.open", path, [&] { return inner_.open_trunc(path); }),
        path);
  }
  int open_append(const char* path) override {
    return note_open(
        timed("robust.open", path, [&] { return inner_.open_append(path); }),
        path);
  }
  std::int64_t write(int fd, const void* data, std::size_t size) override {
    const std::int64_t n = timed(
        "robust.write", fd, [&] { return inner_.write(fd, data, size); });
    writes_.fetch_add(1, std::memory_order_relaxed);
    if (n > 0) {
      bytes_.fetch_add(static_cast<std::uint64_t>(n),
                       std::memory_order_relaxed);
    }
    return n;
  }
  int fsync(int fd) override {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    return timed("robust.fsync", fd, [&] { return inner_.fsync(fd); });
  }
  int close(int fd) override {
    const int rc = timed("robust.close", fd, [&] { return inner_.close(fd); });
    const std::lock_guard<std::mutex> lock(mutex_);
    fd_owner_.erase(fd);
    return rc;
  }
  std::int64_t seek_end(int fd) override {
    return timed("robust.seek", fd, [&] { return inner_.seek_end(fd); });
  }
  int rename(const char* from, const char* to) override {
    return timed("robust.rename", to,
                 [&] { return inner_.rename(from, to); });
  }
  int remove(const char* path) override {
    return timed("robust.remove", path, [&] { return inner_.remove(path); });
  }
  int fsync_parent(const char* path) override {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    return timed("robust.fsync", path,
                 [&] { return inner_.fsync_parent(path); });
  }

  /// Spans of files owned by `owner` become children of `span`.
  void set_owner_span(const std::string& owner, std::uint64_t span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    owner_span_[owner] = span;
  }
  /// Spans of files without a registered owner become children of `span`.
  void set_default_parent(std::uint64_t span) { default_parent_.store(span); }

  void report(Metrics& out) const {
    out.set("robust.writes", static_cast<double>(writes_.load()));
    out.set("robust.fsyncs", static_cast<double>(fsyncs_.load()));
    out.set("robust.bytes_written", static_cast<double>(bytes_.load()));
    out.set("robust.io_ms", static_cast<double>(io_ns_.load()) / 1e6);
  }

 private:
  /// "…/job-7.ckpt.tmp" -> "job-7".
  static std::string owner_of(const char* path) {
    std::string name(path);
    if (const auto slash = name.rfind('/'); slash != std::string::npos) {
      name = name.substr(slash + 1);
    }
    return name.substr(0, name.find('.'));
  }

  int note_open(int fd, const char* path) {
    if (fd >= 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      fd_owner_[fd] = owner_of(path);
    }
    return fd;
  }

  template <typename F>
  std::invoke_result_t<F&> timed(const char* what, const char* path,
                                 F&& call) {
    return timed_for(what, owner_of(path), call);
  }
  template <typename F>
  std::invoke_result_t<F&> timed(const char* what, int fd, F&& call) {
    std::string owner;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = fd_owner_.find(fd); it != fd_owner_.end()) {
        owner = it->second;
      }
    }
    return timed_for(what, std::move(owner), call);
  }
  template <typename F>
  std::invoke_result_t<F&> timed_for(const char* what, std::string owner,
                                     F& call) {
    std::uint64_t parent = default_parent_.load();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = owner_span_.find(owner); it != owner_span_.end()) {
        parent = it->second;
      }
    }
    Scope span(what, parent, owner);
    auto result = call();
    io_ns_.fetch_add(span.close(), std::memory_order_relaxed);
    return result;
  }

  robust::IoBackend& inner_;
  std::atomic<std::uint64_t> default_parent_;
  std::atomic<std::uint64_t> writes_{0}, fsyncs_{0}, bytes_{0}, io_ns_{0};
  std::mutex mutex_;  // guards the two maps
  std::map<int, std::string> fd_owner_;
  std::map<std::string, std::uint64_t> owner_span_;
};

// ---- profile: forwarding BoxSource --------------------------------------

/// Per-trial counts of one forwarding source. Every kSampleEvery-th call
/// is timed; the total is extrapolated, so the clock costs about two
/// reads per kSampleEvery calls instead of two per call.
struct SourceTally {
  static constexpr std::uint64_t kSampleEvery = 16;
  std::uint64_t calls = 0;
  std::uint64_t boxes = 0;
  std::uint64_t timed_calls = 0;
  std::uint64_t timed_ns = 0;
};

/// Cost of one steady-clock read, subtracted from every timed call.
std::uint64_t g_clock_ns = 0;

void calibrate_clock() {
  std::vector<std::uint64_t> deltas(2001);
  for (std::uint64_t& delta : deltas) {
    const std::uint64_t t0 = now_ns();
    delta = now_ns() - t0;
  }
  std::nth_element(deltas.begin(), deltas.begin() + 1000, deltas.end());
  g_clock_ns = deltas[1000];
}

class TracingSource final : public profile::BoxSource {
 public:
  TracingSource(std::unique_ptr<profile::BoxSource> inner, SourceTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  std::optional<profile::BoxSize> next() override {
    return call([&] { return inner_->next(); },
                [](const auto& box) -> std::uint64_t { return box ? 1 : 0; });
  }
  std::optional<profile::BoxRun> next_run() override {
    return call(
        [&] { return inner_->next_run(); },
        [](const auto& run) -> std::uint64_t { return run ? run->count : 0; });
  }
  bool provides_blocks() const override { return inner_->provides_blocks(); }
  std::optional<profile::SubtreeBlock> peek_block() override {
    return call(
        [&] {
          block_ = inner_->peek_block();
          return block_;
        },
        [](const auto&) -> std::uint64_t { return 0; });
  }
  void skip_repeats(std::uint64_t m) override {
    CADAPT_CHECK_MSG(block_.has_value(), "skip_repeats without a peeked block");
    const std::uint64_t boxes = m * block_->boxes_per_repeat;
    call(
        [&] {
          inner_->skip_repeats(m);
          return true;
        },
        [boxes](bool) { return boxes; });
  }

 private:
  template <typename Call, typename Count>
  std::invoke_result_t<Call&> call(Call&& inner_call, Count&& count) {
    const bool timed = tally_.calls++ % SourceTally::kSampleEvery == 0;
    const std::uint64_t t0 = timed ? now_ns() : 0;
    auto result = inner_call();
    if (timed) {
      const std::uint64_t dt = now_ns() - t0;
      tally_.timed_ns += dt > g_clock_ns ? dt - g_clock_ns : 0;
      ++tally_.timed_calls;
    }
    tally_.boxes += count(result);
    return result;
  }

  std::unique_ptr<profile::BoxSource> inner_;
  SourceTally& tally_;
  std::optional<profile::SubtreeBlock> block_;
};

/// The tally of the trial running on this thread; the forwarding sources
/// a trial's runner creates bind to it.
thread_local SourceTally* t_tally = nullptr;

double estimated_source_ns(const SourceTally& tally) {
  if (tally.timed_calls == 0) return 0;
  return static_cast<double>(tally.timed_ns) *
         static_cast<double>(tally.calls) /
         static_cast<double>(tally.timed_calls);
}

// ---- cells ------------------------------------------------------------

std::shared_ptr<const profile::BoxDistribution> make_distribution(
    const campaign::ProfileSpec& spec, const model::RegularParams& params) {
  if (spec.dist == "geometric") {
    return std::make_shared<profile::GeometricPowers>(
        params.b, static_cast<double>(params.a), 0,
        static_cast<unsigned>(spec.uargs.at(0)));
  }
  if (spec.dist == "uniform-powers") {
    return std::make_shared<profile::UniformPowers>(
        params.b, static_cast<unsigned>(spec.uargs.at(0)),
        static_cast<unsigned>(spec.uargs.at(1)));
  }
  if (spec.dist == "bimodal") {
    return std::make_shared<profile::Bimodal>(spec.uargs.at(0),
                                              spec.uargs.at(1), spec.farg);
  }
  if (spec.dist == "point") {
    return std::make_shared<profile::PointMass>(spec.uargs.at(0));
  }
  if (spec.dist == "uniform-range") {
    return std::make_shared<profile::UniformRange>(spec.uargs.at(0),
                                                   spec.uargs.at(1));
  }
  throw util::UsageError("unknown iid distribution '" + spec.dist + "'");
}

engine::TrialSourceFactory source_factory(const campaign::Cell& cell) {
  const model::RegularParams& p = cell.algo.params;
  switch (cell.profile.kind) {
    case campaign::ProfileKind::kWorst:
      return core::worst_profile_source(p, cell.n);
    case campaign::ProfileKind::kShuffled:
      return core::shuffled_census_source(p, cell.n);
    case campaign::ProfileKind::kShifted:
      return core::cyclic_shift_source(p, cell.n);
    case campaign::ProfileKind::kPerturb:
      return core::size_perturb_source(
          p, cell.n, profile::uniform_real_perturb(cell.profile.farg));
    case campaign::ProfileKind::kIid:
      return core::iid_source(make_distribution(cell.profile, p));
    default:
      throw util::UsageError("profile '" + cell.profile.token +
                             "' is not supported by the tracer");
  }
}

/// Per-layer sums over a campaign, keyed by name ("boxes",
/// "replay_ns.arc", ...); each cell adds its own sums once.
using Sums = std::map<std::string, double>;

double sum_of(const Sums& sums, const std::string& key) {
  const auto it = sums.find(key);
  return it == sums.end() ? 0 : it->second;
}

double ratio_of(double num, double den) { return den > 0 ? num / den : 0; }

/// "iid:point:16@8" -> "iid-point-16": the metric-name form of a profile.
std::string profile_metric_name(const campaign::ProfileSpec& spec) {
  std::string token = spec.token.substr(0, spec.token.find('@'));
  std::replace(token.begin(), token.end(), ':', '-');
  return token;
}

campaign::CellResult run_cell_traced(const campaign::Plan& plan,
                                     const campaign::Cell& cell,
                                     std::uint64_t parent, Sums& totals) {
  const std::string owner = "cell-" + std::to_string(cell.index);
  Scope cell_span("campaign.cell", parent, owner);
  const bool ratio = cell.sort.empty();

  engine::RobustTrialRunner runner;
  if (ratio) {
    engine::McOptions mc;
    mc.semantics = plan.manifest.semantics;
    mc.max_boxes = plan.manifest.max_boxes;
    runner = engine::make_regular_trial_runner(
        cell.algo.params, cell.n,
        [factory = source_factory(cell)](util::Rng& rng)
            -> std::unique_ptr<profile::BoxSource> {
          CADAPT_CHECK_MSG(t_tally != nullptr, "source outside a trial");
          return std::make_unique<TracingSource>(factory(rng), *t_tally);
        },
        mc);
  } else {
    campaign::CellRunOptions options =
        campaign::cell_options_from(plan.manifest);
    options.timing = true;
    runner = campaign::make_program_runner(cell, options);
  }
  // Replayable program cells capture their trace in trial 0 and replay it
  // in every trial; adaptive cells run each trial directly.
  const bool replayable =
      !ratio && plan.manifest.trace_replay && cell.sort != "adaptive";
  const std::string policy = cell.policy.empty() ? "lru" : cell.policy;
  const std::string profile = profile_metric_name(cell.profile);

  engine::McOptions trial_options;
  trial_options.seed = cell.seed;
  Sums local;
  std::vector<robust::TrialRecord> records;
  records.reserve(cell.trials);
  for (std::uint64_t trial = 0; trial < cell.trials; ++trial) {
    SourceTally tally;
    t_tally = &tally;
    const char* name = ratio         ? "engine.trial"
                       : !replayable ? "algos.direct"
                       : trial == 0  ? "paging.capture"
                                     : "paging.replay";
    Scope trial_span(name, cell_span.id(), owner);
    records.push_back(engine::run_single_trial(trial_options, runner, trial,
                                               /*timing=*/true));
    const auto ns = static_cast<double>(trial_span.close());
    t_tally = nullptr;
    const robust::TrialRecord& record = records.back();
    local["trials"] += 1;
    local["capped"] += record.capped ? 1 : 0;
    if (ratio) {
      // The sampled source time, as a child span at the trial's start.
      const double source_ns = std::min(estimated_source_ns(tally), ns);
      const std::uint64_t start = trial_span.start_ns();
      g_spans.record({g_spans.next_id(), trial_span.id(), "profile.draw",
                      owner, start,
                      start + static_cast<std::uint64_t>(source_ns),
                      this_thread_tag()});
      const auto boxes = static_cast<double>(tally.boxes);
      local["source_calls"] += static_cast<double>(tally.calls);
      local["boxes"] += boxes;
      local["source_ns"] += source_ns;
      local["ratio_trial_ns"] += ns;
      local["boxes." + profile] += boxes;
      local["trial_ns." + profile] += ns;
    } else {
      local["program_ns"] += ns;
      if (!record.failed) local["ios"] += record.ratio;  // total I/Os
      if (!replayable) {
        local["direct_ns"] += ns;
        local["directs"] += 1;
      } else if (trial == 0) {
        local["capture_ns"] += ns;
        local["captures"] += 1;
      } else {
        local["replay_ns." + policy] += ns;
        local["replays." + policy] += 1;
      }
    }
  }
  Scope aggregate_span("stats.aggregate", cell_span.id(), owner);
  campaign::CellResult result = campaign::aggregate_cell(
      cell, records, plan.config_hash, plan.manifest.unit_progress);
  local["aggregate_ns"] += static_cast<double>(aggregate_span.close());
  local["cells"] += 1;
  static std::mutex totals_mutex;
  const std::lock_guard<std::mutex> lock(totals_mutex);
  for (const auto& [key, value] : local) totals[key] += value;
  return result;
}

// ---- sweep mode ---------------------------------------------------------

int run_sweep_mode(const util::ArgParser& args) {
  const std::vector<std::string>& pos = args.positionals();
  if (pos.size() < 2) throw util::UsageError("sweep needs manifest paths");
  const std::uint64_t jobs = args.get_u64("jobs", 4);
  const std::string out_dir = args.get_string("out-dir", ".");
  const std::string metrics_path = args.get_string("metrics", "metrics.json");
  const std::string spans_path = args.get_string("spans", "spans.jsonl");

  Scope root("run", 0);
  TimingIo io(root.id());
  Sums totals;
  double plan_ns = 0, fit_ns = 0, encode_ns = 0, report_bytes = 0;
  double wall_ns = 0;
  for (std::size_t m = 1; m < pos.size(); ++m) {
    Scope plan_span("campaign.plan", root.id());
    const campaign::Plan plan =
        campaign::expand_plan(campaign::parse_manifest_file(pos[m]));
    plan_ns += static_cast<double>(plan_span.close());
    if (plan.manifest.workers > 1) {
      throw util::UsageError("the tracer runs trials sequentially; "
                             "use workers = 1");
    }

    Scope campaign_span("campaign.run", root.id(), plan.manifest.name);
    const std::uint64_t started = now_ns();
    std::vector<campaign::CellResult> cells(plan.cells.size());
    {
      util::ThreadPool pool(static_cast<std::size_t>(jobs));
      util::parallel_for(pool, plan.cells.size(), [&](std::size_t i) {
        cells[i] =
            run_cell_traced(plan, plan.cells[i], campaign_span.id(), totals);
      });
    }
    const std::uint64_t wall_ms = (now_ns() - started) / 1000000u;
    // Report assembly: cells in index order plus the power-law fits.
    Scope fit_span("stats.fit", campaign_span.id());
    const campaign::Report report = campaign::assemble_report(
        plan, std::move(cells), 1, 0, false, robust::CancelReason::kNone,
        wall_ms);
    fit_ns += static_cast<double>(fit_span.close());
    std::ostringstream encoded;
    {
      Scope encode_span("report.encode", campaign_span.id());
      campaign::write_report(encoded, report);
      encode_ns += static_cast<double>(encode_span.close());
    }
    const std::string bytes = encoded.str();
    report_bytes += static_cast<double>(bytes.size());
    {
      Scope commit_span("robust.commit", campaign_span.id());
      io.set_default_parent(commit_span.id());
      robust::atomic_write_file(
          out_dir + "/" + std::to_string(m - 1) + ".json", bytes, io);
      io.set_default_parent(root.id());
    }
    wall_ns += static_cast<double>(campaign_span.close());
  }
  root.close();

  const std::vector<Span> spans = g_spans.snapshot();
  const auto sum = [&totals](const std::string& key) {
    return sum_of(totals, key);
  };
  Metrics out;
  out.set("wall_s", wall_ns / 1e9);
  out.set("campaign.plan_ms", plan_ns / 1e6);
  out.set("campaign.cells", sum("cells"));
  out.set("profile.boxes", sum("boxes"));
  out.set("profile.source_calls", sum("source_calls"));
  out.set("profile.boxes_per_call",
          ratio_of(sum("boxes"), sum("source_calls")));
  out.set("profile.draw_ns_per_box", ratio_of(sum("source_ns"), sum("boxes")));
  out.set("engine.trials", sum("trials"));
  out.set("engine.capped_trials", sum("capped"));
  out.set("engine.consume_ns_per_box",
          ratio_of(sum("ratio_trial_ns") - sum("source_ns"), sum("boxes")));
  out.set("paging.capture_ms", ratio_of(sum("capture_ns") / 1e6,
                                        sum("captures")));
  out.set("paging.ios", sum("ios"));
  out.set("paging.ios_per_s", ratio_of(sum("ios"), sum("program_ns") / 1e9));
  out.set("algos.direct_ms_per_trial",
          ratio_of(sum("direct_ns") / 1e6, sum("directs")));
  for (const auto& [key, value] : totals) {
    if (key.rfind("boxes.", 0) == 0) {
      const std::string profile = key.substr(6);
      out.set("engine.boxes_per_s." + profile,
              ratio_of(value, sum("trial_ns." + profile) / 1e9));
    } else if (key.rfind("replays.", 0) == 0) {
      const std::string policy = key.substr(8);
      out.set("paging.replay_ms_per_trial." + policy,
              ratio_of(sum("replay_ns." + policy) / 1e6, value));
    }
  }
  out.set("stats.aggregate_us_per_cell",
          ratio_of(sum("aggregate_ns") / 1e3, sum("cells")));
  out.set("stats.fit_ms", fit_ns / 1e6);
  out.set("report.encode_ms", encode_ns / 1e6);
  out.set("report.bytes", report_bytes);
  io.report(out);
  set_self_times(out, spans, root.id());
  out.write(metrics_path);
  write_spans(spans_path, spans);
  return 0;
}

// ---- serve mode -----------------------------------------------------------

/// Timestamps the daemon's decision events and turns them into job spans
/// and scheduling metrics. ServeCore writes under its own mutex; this sink
/// locks anyway so it never depends on that.
class ServeSink final : public obs::TraceSink {
 public:
  ServeSink(std::uint64_t root, TimingIo& io) : root_(root), io_(io) {}

  void write(const obs::Event& event) override {
    const std::uint64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (event.type == "job_accepted") {
      Job& job = jobs_[event.str_or("job", "")];
      job.client = event.str_or("client", "anon");
      job.cells_total = event.u64_or("cells", 0);
      job.accepted_ns = t;
      job.span = g_spans.next_id();
      io_.set_owner_span(event.str_or("job", ""), job.span);
      if (first_ns_ == 0) first_ns_ = t;
    } else if (event.type == "cell_scheduled") {
      const auto it = jobs_.find(event.str_or("job", ""));
      if (it == jobs_.end()) return;
      Job& job = it->second;
      if (job.scheduled == 0) job.first_scheduled_ns = t;
      ++job.scheduled;
      // A contended decision: two or more tenants had undispatched cells,
      // so weighted round-robin owes each of them an equal share of it.
      std::map<std::string, bool> pending;
      for (const auto& [id, other] : jobs_) {
        if (&other == &job ||
            (other.done_ns == 0 && other.scheduled < other.cells_total)) {
          pending[other.client] = true;
        }
      }
      if (pending.size() >= 2) {
        for (const auto& [client, unused] : pending) {
          owed_[client] += 1.0 / static_cast<double>(pending.size());
        }
        got_[job.client] += 1.0;
        ++contended_total_;
      }
    } else if (event.type == "sweep_cell") {
      ++cells_done_;
    } else if (event.type == "job_done") {
      const std::string id = event.str_or("job", "");
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) return;
      Job& job = it->second;
      job.done_ns = t;
      last_ns_ = t;
      g_spans.record({job.span, root_, "serve.job", id, job.accepted_ns, t,
                      this_thread_tag()});
      if (job.first_scheduled_ns != 0) {
        g_spans.record({g_spans.next_id(), job.span, "serve.queue_wait", id,
                        job.accepted_ns, job.first_scheduled_ns,
                        this_thread_tag()});
      }
    }
  }

  void report(Metrics& out) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> waits;
    for (const auto& [id, job] : jobs_) {
      if (job.first_scheduled_ns != 0) {
        waits.push_back(
            static_cast<double>(job.first_scheduled_ns - job.accepted_ns) /
            1e6);
      }
    }
    out.set("serve.queue_wait_ms_p50", median(waits));
    const double span_s = static_cast<double>(last_ns_ - first_ns_) / 1e9;
    out.set("serve.cells_per_s",
            ratio_of(static_cast<double>(cells_done_), span_s));
    double error = 0;
    for (const auto& [client, owed] : owed_) {
      const auto it = got_.find(client);
      const double got = it == got_.end() ? 0 : it->second;
      error = std::max(error, std::abs(got - owed));
    }
    if (contended_total_ > 0) error /= static_cast<double>(contended_total_);
    out.set("serve.share_error", error);
    out.set("campaign.cells", static_cast<double>(cells_done_));
  }

 private:
  struct Job {
    std::string client;
    std::uint64_t cells_total = 0, scheduled = 0, span = 0;
    std::uint64_t accepted_ns = 0, first_scheduled_ns = 0, done_ns = 0;
  };

  std::uint64_t root_;
  TimingIo& io_;
  mutable std::mutex mutex_;
  std::map<std::string, Job> jobs_;
  std::map<std::string, double> owed_, got_;  // contended decisions
  std::uint64_t contended_total_ = 0, cells_done_ = 0;
  std::uint64_t first_ns_ = 0, last_ns_ = 0;
};

int run_serve_mode(const util::ArgParser& args) {
  const std::string metrics_path = args.get_string("metrics", "metrics.json");
  const std::string spans_path = args.get_string("spans", "spans.jsonl");
  Scope root("run", 0);
  TimingIo io(root.id());
  ServeSink sink(root.id(), io);
  serve::DaemonOptions options;
  options.socket_path = args.get_string("socket", "");
  options.core.spool_dir = args.get_string("spool", "");
  if (options.socket_path.empty() || options.core.spool_dir.empty()) {
    throw util::UsageError("serve needs --socket and --spool");
  }
  options.core.jobs = args.get_u64("jobs", 4);
  options.core.io = &io;
  options.core.trace = &sink;
  robust::install_signal_cancel();
  const int rc = serve::run_daemon(options);
  const double wall_ns = static_cast<double>(root.close());

  const std::vector<Span> spans = g_spans.snapshot();
  Metrics out;
  out.set("wall_s", wall_ns / 1e9);
  sink.report(out);
  io.report(out);
  set_self_times(out, spans, root.id());
  out.write(metrics_path);
  write_spans(spans_path, spans);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    calibrate_clock();
    const std::string mode =
        args.positionals().empty() ? "" : args.positionals().front();
    if (mode == "sweep") return run_sweep_mode(args);
    if (mode == "serve") return run_serve_mode(args);
    std::cerr << "usage: perfbench_trace sweep|serve ... (see the header)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << "\n";
    return 1;
  }
}
