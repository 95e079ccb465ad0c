#include "benchsupport/table.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "benchsupport/harness.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/strutil.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace mfbc::bench {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  MFBC_CHECK(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  MFBC_CHECK(cells.size() == headers_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::render(const std::string& title) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  if (!title.empty()) os << "== " << title << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) {
        os << std::string(width[c] - row[c].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

namespace {
std::string csv_cell(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ',';
      os << csv_cell(row[c]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("cannot write CSV file: " + path);
  out << to_csv();
}

bool BenchArgs::allow_async() const {
  if (schedule == "sync") return false;
  MFBC_CHECK(schedule == "auto" || schedule == "async",
             "--schedule expects sync|auto|async, got: " + schedule);
  return true;
}

namespace {

/// Number of argv slots the shared flag at position `i` occupies, or 0 when
/// argv[i] is not a shared bench flag.
int consume_bench_flag(BenchArgs& args, int argc, char** argv, int i) {
  const std::string f = argv[i];
  if (f == "--small") {
    args.small = true;
    return 1;
  }
  if (f == "--csv") {
    MFBC_CHECK(i + 1 < argc, "--csv requires a directory argument");
    args.csv_dir = argv[i + 1];
    return 2;
  }
  if (f == "--json") {
    MFBC_CHECK(i + 1 < argc, "--json requires a file argument");
    args.json_path = argv[i + 1];
    return 2;
  }
  if (f == "--chrome-trace") {
    MFBC_CHECK(i + 1 < argc, "--chrome-trace requires a file argument");
    args.chrome_trace_path = argv[i + 1];
    return 2;
  }
  if (f == "--threads") {
    MFBC_CHECK(i + 1 < argc, "--threads requires a count argument");
    args.threads = parse_int<int>("--threads", argv[i + 1]);
    MFBC_CHECK(args.threads >= 1, "--threads must be >= 1");
    return 2;
  }
  if (f == "--faults") {
    MFBC_CHECK(i + 1 < argc, "--faults requires a spec argument");
    args.faults = argv[i + 1];
    return 2;
  }
  if (f == "--fault-seed") {
    MFBC_CHECK(i + 1 < argc, "--fault-seed requires a seed argument");
    args.fault_seed = parse_int<std::uint64_t>("--fault-seed", argv[i + 1]);
    return 2;
  }
  if (f == "--tune-profile") {
    MFBC_CHECK(i + 1 < argc, "--tune-profile requires a file argument");
    args.tune_profile = argv[i + 1];
    return 2;
  }
  if (f == "--schedule") {
    MFBC_CHECK(i + 1 < argc, "--schedule requires sync|auto|async");
    args.schedule = argv[i + 1];
    args.allow_async();  // validate eagerly so typos fail at parse time
    return 2;
  }
  return 0;
}

/// A bad shared flag ends the process as the CLIs do: `error: <message>`
/// on stderr and exit status 2.
[[noreturn]] void flag_error(const Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  std::exit(2);
}

/// Span collection is off by default; a requested trace turns it on for the
/// rest of the process so instrumented library code starts recording.
/// An explicit --threads resizes the shared pool before any kernel runs.
void apply_telemetry_flags(const BenchArgs& args) {
  if (!args.chrome_trace_path.empty()) {
    telemetry::collector().set_enabled(true);
  }
  if (args.threads > 0) support::set_threads(args.threads);
}

}  // namespace

BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  try {
    for (int i = 1; i < argc;) {
      const int used = consume_bench_flag(args, argc, argv, i);
      if (used == 0) {
        throw Error(std::string("unknown bench flag: ") + argv[i] +
                    " (supported: --small, --csv DIR, --json PATH, "
                    "--chrome-trace PATH, --threads N, --faults SPEC, "
                    "--fault-seed S, --tune-profile FILE, --schedule S)");
      }
      i += used;
    }
  } catch (const Error& e) {
    flag_error(e);
  }
  apply_telemetry_flags(args);
  init_session_tuner(args);
  return args;
}

BenchArgs extract_bench_args(int* argc, char** argv) {
  BenchArgs args;
  int out = 1;
  try {
    for (int i = 1; i < *argc;) {
      const int used = consume_bench_flag(args, *argc, argv, i);
      if (used == 0) {
        argv[out++] = argv[i++];
      } else {
        i += used;
      }
    }
  } catch (const Error& e) {
    flag_error(e);
  }
  *argc = out;
  apply_telemetry_flags(args);
  init_session_tuner(args);
  return args;
}

void maybe_write_csv(const BenchArgs& args, const std::string& name,
                     const Table& table) {
  if (args.csv_dir.empty()) return;
  const std::string path = args.csv_dir + "/" + name + ".csv";
  table.write_csv(path);
  std::printf("[csv] wrote %s\n", path.c_str());
}

Table histogram_table(const std::vector<std::string>& names) {
  Table tab({"histogram", "count", "min", "p50", "mean", "p95", "max"});
  for (const std::string& name : names) {
    const telemetry::HistStats h = telemetry::registry().histogram(name);
    const bool any = h.count > 0;
    tab.add_row({name, fixed(h.count, 0), compact(any ? h.min : 0.0, 4),
                 compact(h.percentile(50), 4), compact(h.mean(), 4),
                 compact(h.percentile(95), 4), compact(any ? h.max : 0.0, 4)});
  }
  return tab;
}

}  // namespace mfbc::bench
