#include "campaign/report.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <utility>

#include "stats/bootstrap.hpp"
#include "stats/fit.hpp"
#include "stats/quantiles.hpp"
#include "stats/streaming.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace cadapt::campaign {

namespace {

/// Shortest-round-trip encoding, matching obs/event.cpp's doubles: the
/// parsed sample is bit-identical to the aggregated one.
std::string join_samples(const std::vector<double>& samples) {
  std::string out;
  std::array<char, 32> buf;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i != 0) out += ' ';
    const auto res =
        std::to_chars(buf.data(), buf.data() + buf.size(), samples[i]);
    CADAPT_CHECK(res.ec == std::errc());
    out.append(buf.data(), res.ptr);
  }
  return out;
}

std::vector<double> split_samples(const std::string& joined,
                                  std::size_t line_no) {
  std::vector<double> samples;
  const char* p = joined.data();
  const char* end = p + joined.size();
  while (p < end) {
    if (*p == ' ') {
      ++p;
      continue;
    }
    double value = 0;
    const auto res = std::from_chars(p, end, value);
    if (res.ec != std::errc() || !std::isfinite(value)) {
      throw util::ParseError("sweep report: malformed samples field",
                             line_no);
    }
    samples.push_back(value);
    p = res.ptr;
  }
  return samples;
}

}  // namespace

/// log_b a from an "a:b:c" token (0 when the token is malformed — fits
/// still carry the measured exponent).
double algo_expected_exponent(const std::string& algo_token) {
  std::uint64_t a = 0, b = 0;
  const char* p = algo_token.data();
  const char* end = p + algo_token.size();
  auto res = std::from_chars(p, end, a);
  if (res.ec != std::errc() || res.ptr == end || *res.ptr != ':') return 0;
  res = std::from_chars(res.ptr + 1, end, b);
  if (res.ec != std::errc() || a == 0 || b < 2) return 0;
  return std::log(static_cast<double>(a)) / std::log(static_cast<double>(b));
}

obs::Event report_header_event(const Report& report) {
  obs::Event event("sweep_report");
  event.u64("version", report.version)
      .str("name", report.name)
      .u64("config_hash", report.config_hash)
      .u64("cells_total", report.cells_total)
      .u64("shards", report.shards)
      .u64("shard_index", report.shard_index)
      .flag("truncated", report.truncated);
  // Emitted only for truncated reports with a known reason, so reports
  // written before the field existed stay byte-identical on regen.
  if (report.truncated &&
      report.truncate_reason != robust::CancelReason::kNone) {
    event.str("truncate_reason",
              robust::cancel_reason_name(report.truncate_reason));
  }
  event.u64("wall_ms", report.wall_ms);
  return event;
}

obs::Event report_fit_event(const FitResult& fit) {
  obs::Event event("sweep_fit");
  event.str("algo", fit.algo)
      .str("profile", fit.profile)
      .f64("exponent", fit.exponent)
      .f64("scale", fit.scale)
      .f64("r2", fit.r2)
      .f64("expected", fit.expected);
  return event;
}

namespace {

FitResult fit_from_event(const obs::Event& event) {
  FitResult fit;
  fit.algo = event.str_or("algo", "");
  fit.profile = event.str_or("profile", "");
  fit.exponent = event.f64_or("exponent", 0);
  fit.scale = event.f64_or("scale", 0);
  fit.r2 = event.f64_or("r2", 0);
  fit.expected = event.f64_or("expected", 0);
  return fit;
}

}  // namespace

std::uint64_t cell_ci_seed(std::uint64_t config_hash,
                           std::uint64_t cell_index) {
  return util::hash_combine(config_hash, cell_index);
}

CellResult aggregate_cell(const Cell& cell,
                          const std::vector<robust::TrialRecord>& records,
                          std::uint64_t config_hash, bool unit_progress) {
  CellResult result;
  result.index = cell.index;
  result.algo = cell.algo.token;
  result.profile = cell.profile.token;
  result.sort = cell.sort;
  result.policy = cell.policy;
  result.k = cell.k;
  result.n = cell.n;
  result.trials = cell.trials;

  stats::Welford boxes;
  for (const robust::TrialRecord& record : records) {
    result.wall_ns += record.duration_ns;
    if (record.failed) {
      ++result.failed;
      continue;
    }
    boxes.add(static_cast<double>(record.boxes));
    if (!record.completed) {
      ++result.incomplete;
      if (record.capped) ++result.capped;
      continue;
    }
    ++result.completed;
    result.samples.push_back(unit_progress ? record.unit_ratio
                                           : record.ratio);
  }
  if (boxes.count() > 0) result.boxes_mean = boxes.mean();
  if (!result.samples.empty()) {
    const stats::BootstrapCi ci = stats::bootstrap_mean_ci(
        result.samples, {}, cell_ci_seed(config_hash, cell.index));
    result.mean = ci.point;
    result.ci_lo = ci.lo;
    result.ci_hi = ci.hi;
    std::vector<double> sorted = result.samples;
    std::sort(sorted.begin(), sorted.end());
    result.q50 = stats::sorted_quantile(sorted, 0.50);
    result.q90 = stats::sorted_quantile(sorted, 0.90);
    result.q95 = stats::sorted_quantile(sorted, 0.95);
  }
  return result;
}

std::vector<FitResult> compute_fits(const Report& report) {
  // Group ratio cells by (algo, profile) in first-appearance order.
  std::vector<std::pair<std::string, std::string>> order;
  std::map<std::pair<std::string, std::string>,
           std::vector<const CellResult*>>
      series;
  for (const CellResult& cell : report.cells) {
    if (cell.algo.empty() || !cell.sort.empty()) continue;
    auto key = std::make_pair(cell.algo, cell.profile);
    auto [it, inserted] = series.try_emplace(key);
    if (inserted) order.push_back(key);
    it->second.push_back(&cell);
  }

  std::vector<FitResult> fits;
  for (const auto& key : order) {
    const auto& cells = series.at(key);
    std::vector<std::uint64_t> ns;
    std::vector<double> means;
    bool usable = true;
    for (const CellResult* cell : cells) {
      if (cell->completed == 0) {
        usable = false;
        break;
      }
      ns.push_back(cell->n);
      means.push_back(cell->mean);
    }
    // A fit needs two distinct sizes; a flat grid has no slope to measure.
    std::vector<std::uint64_t> distinct = ns;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (!usable || distinct.size() < 2) continue;
    const stats::ExponentFit fit = stats::fit_power_law(ns, means);
    FitResult out;
    out.algo = key.first;
    out.profile = key.second;
    out.exponent = fit.exponent;
    out.scale = fit.scale;
    out.r2 = fit.r2;
    out.expected = algo_expected_exponent(key.first);
    fits.push_back(std::move(out));
  }
  return fits;
}

obs::Event cell_event(const CellResult& cell) {
  obs::Event event("sweep_cell");
  event.u64("index", cell.index)
      .str("algo", cell.algo)
      .str("profile", cell.profile)
      .str("sort", cell.sort);
  // Emitted only when non-empty so policy-free reports stay
  // byte-identical to ones written before the axis existed.
  if (!cell.policy.empty()) event.str("policy", cell.policy);
  event.u64("k", cell.k)
      .u64("n", cell.n)
      .u64("trials", cell.trials)
      .u64("completed", cell.completed)
      .u64("incomplete", cell.incomplete)
      .u64("failed", cell.failed);
  // Emitted only when nonzero so cap-free reports stay byte-identical to
  // ones written before the field existed (the regen diff relies on it).
  if (cell.capped != 0) event.u64("capped", cell.capped);
  event.f64("mean", cell.mean)
      .f64("ci_lo", cell.ci_lo)
      .f64("ci_hi", cell.ci_hi)
      .f64("q50", cell.q50)
      .f64("q90", cell.q90)
      .f64("q95", cell.q95)
      .f64("boxes_mean", cell.boxes_mean)
      .u64("wall_ns", cell.wall_ns)
      .str("samples", join_samples(cell.samples));
  return event;
}

CellResult cell_from_event(const obs::Event& event, std::size_t line_no) {
  CellResult cell;
  cell.index = event.u64_or("index", 0);
  cell.algo = event.str_or("algo", "");
  cell.profile = event.str_or("profile", "");
  cell.sort = event.str_or("sort", "");
  cell.policy = event.str_or("policy", "");
  cell.k = static_cast<unsigned>(event.u64_or("k", 0));
  cell.n = event.u64_or("n", 0);
  cell.trials = event.u64_or("trials", 0);
  cell.completed = event.u64_or("completed", 0);
  cell.incomplete = event.u64_or("incomplete", 0);
  cell.capped = event.u64_or("capped", 0);
  cell.failed = event.u64_or("failed", 0);
  cell.mean = event.f64_or("mean", 0);
  cell.ci_lo = event.f64_or("ci_lo", 0);
  cell.ci_hi = event.f64_or("ci_hi", 0);
  cell.q50 = event.f64_or("q50", 0);
  cell.q90 = event.f64_or("q90", 0);
  cell.q95 = event.f64_or("q95", 0);
  cell.boxes_mean = event.f64_or("boxes_mean", 0);
  cell.wall_ns = event.u64_or("wall_ns", 0);
  cell.samples = split_samples(event.str_or("samples", ""), line_no);
  if (cell.samples.size() != cell.completed) {
    throw util::ParseError("sweep report: cell " +
                               std::to_string(cell.index) + " carries " +
                               std::to_string(cell.samples.size()) +
                               " samples but claims " +
                               std::to_string(cell.completed) +
                               " completed trials",
                           line_no);
  }
  return cell;
}

namespace {

/// Render every report line into `sink` (newline included), reusing one
/// encode buffer across lines. Both writers below share this, so the
/// streamed file commit is byte-identical to the ostream path.
template <typename Sink>
void render_report(const Report& report, Sink&& sink) {
  std::string buf;
  const auto emit = [&](const obs::Event& event) {
    obs::to_jsonl(event, buf);
    buf += '\n';
    sink(std::string_view(buf));
  };
  emit(report_header_event(report));
  emit(provenance_event(report.env));
  for (const CellResult& cell : report.cells) emit(cell_event(cell));
  for (const FitResult& fit : report.fits) emit(report_fit_event(fit));
}

}  // namespace

void write_report(std::ostream& os, const Report& report) {
  render_report(report, [&os](std::string_view line) {
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
  });
}

void write_report_file(const std::string& path, const Report& report,
                       robust::IoBackend& io) {
  // Bounded-memory commit: lines stream through chunked durable writes
  // instead of one report-sized ostringstream. Reports under the chunk
  // size still cost exactly one durable write, so the chaos lane's
  // crash-point indexes are unchanged.
  robust::AtomicFileWriter out(path, io);
  render_report(report,
                [&out](std::string_view line) { out.write(line); });
  out.commit();
}

Report load_report(std::istream& is) {
  const std::vector<robust::JsonlLine> lines =
      robust::load_jsonl_tolerant(is, "sweep report");
  if (lines.empty()) {
    throw util::ParseError("sweep report: empty stream");
  }
  const obs::Event& head = lines.front().event;
  if (head.type != "sweep_report") {
    throw util::ParseError("sweep report: first line must be sweep_report",
                           lines.front().line_no);
  }
  Report report;
  report.version = head.u64_or("version", 0);
  if (report.version != 1) {
    throw util::ParseError("sweep report: unsupported version " +
                               std::to_string(report.version),
                           lines.front().line_no);
  }
  report.name = head.str_or("name", "");
  report.config_hash = head.u64_or("config_hash", 0);
  report.cells_total = head.u64_or("cells_total", 0);
  report.shards = head.u64_or("shards", 1);
  report.shard_index = head.u64_or("shard_index", 0);
  report.truncated = head.flag_or("truncated", false);
  if (const auto reason =
          robust::parse_cancel_reason(head.str_or("truncate_reason", "none"));
      reason.has_value()) {
    report.truncate_reason = *reason;
  }
  report.wall_ms = head.u64_or("wall_ms", 0);

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const obs::Event& event = lines[i].event;
    if (event.type == "sweep_env") {
      report.env = provenance_from_event(event);
    } else if (event.type == "sweep_cell") {
      report.cells.push_back(cell_from_event(event, lines[i].line_no));
    } else if (event.type == "sweep_fit") {
      report.fits.push_back(fit_from_event(event));
    } else {
      throw util::ParseError(
          "sweep report: unexpected line type '" + event.type + "'",
          lines[i].line_no);
    }
  }
  std::sort(report.cells.begin(), report.cells.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.index < b.index;
            });
  return report;
}

Report load_report_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw util::IoError("cannot open report: " + path);
  return load_report(is);
}

Report merge_reports(std::vector<Report> parts) {
  if (parts.empty()) {
    throw util::ParseError("sweep merge: no input reports");
  }
  Report merged;
  const Report& first = parts.front();
  merged.version = first.version;
  merged.name = first.name;
  merged.config_hash = first.config_hash;
  merged.cells_total = first.cells_total;
  merged.env = first.env;

  // Move every shard's cells straight into the merged vector — no map,
  // no deep copies of samples vectors — then restore index order with
  // one sort (shards interleave round-robin). Duplicates show up as
  // adjacent equal indexes after the sort.
  std::size_t total = 0;
  for (const Report& part : parts) total += part.cells.size();
  merged.cells.reserve(total);
  for (Report& part : parts) {
    if (part.name != merged.name ||
        part.config_hash != merged.config_hash ||
        part.cells_total != merged.cells_total ||
        part.version != merged.version) {
      throw util::ParseError(
          "sweep merge: report '" + part.name +
          "' belongs to a different campaign (name/config_hash/"
          "cells_total mismatch)");
    }
    merged.truncated = merged.truncated || part.truncated;
    // Keep the first shard's reason (shard order, deterministic) when
    // several truncated for different causes.
    if (merged.truncate_reason == robust::CancelReason::kNone) {
      merged.truncate_reason = part.truncate_reason;
    }
    merged.wall_ms += part.wall_ms;
    merged.cells.insert(merged.cells.end(),
                        std::make_move_iterator(part.cells.begin()),
                        std::make_move_iterator(part.cells.end()));
    part.cells.clear();
  }
  std::sort(merged.cells.begin(), merged.cells.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.index < b.index;
            });
  for (std::size_t i = 1; i < merged.cells.size(); ++i) {
    if (merged.cells[i].index == merged.cells[i - 1].index) {
      throw util::ParseError("sweep merge: cell " +
                             std::to_string(merged.cells[i].index) +
                             " appears in more than one report");
    }
  }
  if (merged.cells.size() != merged.cells_total) {
    throw util::ParseError(
        "sweep merge: " + std::to_string(merged.cells.size()) + " cells of " +
        std::to_string(merged.cells_total) +
        " — the shard set does not cover the grid");
  }
  merged.fits = compute_fits(merged);
  return merged;
}

}  // namespace cadapt::campaign
