// papd_perfbench: runs one phase of one benchmark workload and prints one
// JSON line.  perfbench/run.py builds this binary and drives it; see
// perfbench/README.md for the workloads and what each phase measures.
//
//   papd_perfbench --workload paper_figures|fleet_diurnal|cluster_hold
//                  --phase setup|measure|trace --seed N --seconds S [--quick]

#include <dirent.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cc/common.h"

namespace perfbench {

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

void DigestGrants(const papd::BudgetTree& tree, Digest* d) {
  for (int n = 0; n < tree.num_nodes(); n++) {
    d->Q(tree.grant_w(n));
  }
  d->Q(tree.measured_w(0));
}

void Report::AddRepetition(const std::string& setup, const std::string& measured) {
  if (digest.empty()) {
    setup_digest = setup;
    digest = measured;
  }
  digests_agree = digests_agree && setup == setup_digest && measured == digest;
}

void Report::AddMeasured(std::vector<double> steps, double measured_s, double core_ticks) {
  metrics["core_ticks_per_s"] = core_ticks / measured_s;
  metrics["step_ms_p50"] = Percentile(steps, 50.0);
  metrics["step_ms_p90"] = Percentile(steps, 90.0);
  step_ms = std::move(steps);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the pre-exec image, i.e. of the forking parent.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

namespace {

// A JSON number with all its digits; null for a non-finite value, which
// run.py reports as a missing metric.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char num[64];
  std::snprintf(num, sizeof(num), "%.9g", v);
  return num;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Threads of this process.  The workloads step serially on the calling
// thread; a second thread means some call fell back to a thread pool.
int ThreadCount() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return -1;
  }
  int n = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') {
      n++;
    }
  }
  closedir(dir);
  return n;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "papd_perfbench: %s\nusage: papd_perfbench --workload W --phase "
               "setup|measure|trace --seed N --seconds S [--quick]\n",
               why);
  return 2;
}

}  // namespace

void Report::Print() const {
  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); i++) {
      out += (i > 0 ? ", " : "") + JsonNumber(v[i]);
    }
    return out + "]";
  };
  std::string out = "{\"setup_s\": " + list(setup_s);
  out += ", \"setup_digest\": " + JsonString(setup_digest);
  out += ", \"digest\": " + JsonString(digest);
  out += std::string(", \"digests_agree\": ") + (digests_agree ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); i++) {
    out += (i > 0 ? ", " : "") + JsonString(errors[i]);
  }
  out += "], \"step_ms\": " + list(step_ms);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--phase" && has_value) {
      opt.phase = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else {
      return perfbench::Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.phase != "setup" && opt.phase != "measure" && opt.phase != "trace") {
    return perfbench::Usage("bad --phase");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    return perfbench::Usage("--seconds must be in (0, 600]");
  }

  perfbench::Report report;
  if (opt.workload == "paper_figures") {
    perfbench::RunPaperFigures(opt, &report);
  } else if (opt.workload == "fleet_diurnal") {
    perfbench::RunFleetDiurnal(opt, &report);
  } else if (opt.workload == "cluster_hold") {
    perfbench::RunClusterHold(opt, &report);
  } else {
    return perfbench::Usage("unknown --workload");
  }
  const int threads = perfbench::ThreadCount();
  if (threads != 1) {
    report.Error("process ran " + std::to_string(threads) +
                 " threads; workloads must step serially");
  }
  report.metrics.emplace("peak_rss_mb", perfbench::PeakRssMb());
  report.Print();
  return 0;
}
