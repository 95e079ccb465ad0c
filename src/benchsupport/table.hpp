// Plain-text table/series printers for the benchmark binaries. Each bench
// reproduces one paper artifact and prints rows in the same shape the paper
// reports (Table 3 columns, Figure 1/2 MTEPS-per-node series).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mfbc::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Render with column alignment; `title` printed above when non-empty.
  std::string render(const std::string& title = {}) const;

  /// Comma-separated rendering (quotes cells containing commas/quotes).
  std::string to_csv() const;

  /// Write to_csv() to `path` (throws mfbc::Error on I/O failure).
  void write_csv(const std::string& path) const;

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Shared option parsing for the bench binaries: every bench accepts
/// `--small` (reduced problem sizes for smoke runs), `--csv DIR` (write the
/// printed tables as CSV files into DIR), `--json PATH` (write a
/// machine-readable run summary — tables, cells, telemetry counters),
/// `--chrome-trace PATH` (record spans and write a chrome://tracing /
/// Perfetto trace), `--threads N` (size the shared-memory execution
/// pool; results are bit-identical for every N), `--faults SPEC` (inject
/// deterministic faults into the simulated machine; grammar in
/// sim::FaultSpec::parse), `--fault-seed S` (fault-schedule seed),
/// `--tune-profile FILE` (attach the adaptive plan tuner, loading/saving
/// the persistent profile at FILE — docs/autotuning.md), and
/// `--schedule S` (sync|auto|async: open the plan search to the async
/// pipelined schedule axis; results are bit-identical either way, only the
/// charged cost changes — docs/SIMULATOR.md).
struct BenchArgs {
  bool small = false;
  std::string csv_dir;
  std::string json_path;
  std::string chrome_trace_path;
  int threads = 0;  ///< 0 = leave the pool at its MFBC_THREADS/default size
  std::string faults;  ///< empty = fault-free (no injector attached at all)
  std::uint64_t fault_seed = 1;
  std::string tune_profile;  ///< empty = no tuner (static autotuning)
  std::string schedule = "sync";  ///< sync|auto|async plan-schedule axis

  /// True when --schedule asks for the async axis ("auto" or "async");
  /// throws mfbc::Error on an unrecognised value.
  bool allow_async() const;
};

/// Numbers parse whole (support/strutil.hpp); a malformed, missing or
/// unknown flag prints `error: <message>` and exits 2.
BenchArgs parse_bench_args(int argc, char** argv);

/// Like parse_bench_args, but removes the flags it recognises from
/// argc/argv in place and leaves everything else untouched, for binaries
/// whose remaining arguments belong to another parser (bench_kernels hands
/// the rest to google-benchmark).
BenchArgs extract_bench_args(int* argc, char** argv);

/// If args.csv_dir is set, write `table` to "<dir>/<name>.csv" and print a
/// note; otherwise do nothing.
void maybe_write_csv(const BenchArgs& args, const std::string& name,
                     const Table& table);

/// One row per named registry histogram: count, min, p50, mean, p95, max.
/// Names with no observations render as zero rows. Used by the benches to
/// print frontier-size (and similar) distributions with their tails, not
/// just the extremes.
Table histogram_table(const std::vector<std::string>& names);

}  // namespace mfbc::bench
