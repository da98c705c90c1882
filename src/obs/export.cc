#include "src/obs/export.h"

#include <cstdio>
#include <string_view>

#include "src/common/json.h"
#include "src/common/logging.h"

namespace papd {
namespace obs {
namespace {

// Ladder-state labels for TraceEvent code values (matching the
// DegradationState enum order; daemon.cc static_asserts the mapping).
const char* LadderName(int32_t code) {
  static constexpr const char* kNames[] = {"nominal", "hold", "fallback"};
  return code >= 0 && code < 3 ? kNames[code] : "?";
}

// Opens one trace_event object with the fields every event shares and
// leaves the writer inside its "args" object.  Instants are thread-scoped;
// counters have no tid.
void BeginEvent(json::Writer* w, const TraceEvent& e, std::string_view name, const char* cat,
                char ph) {
  w->BeginObject().Key("name").String(name).Key("cat").String(cat);
  w->Key("ph").String(std::string_view(&ph, 1));
  if (ph == 'i') {
    w->Key("s").String("t");
  }
  w->Key("ts").Number(e.t.value() * 1e6).Key("pid").Int(e.shard);
  if (ph != 'C') {
    w->Key("tid").Int(0);
  }
  w->Key("args").BeginObject();
}

std::string NodeTrackName(const TraceEvent& e, const char* track) {
  return "node" + std::to_string(e.index) + " level" + std::to_string(e.code) + " " + track;
}

void WriteEvent(json::Writer* w, const TraceEvent& e) {
  switch (e.type) {
    case TraceEventType::kPeriodBegin:
      BeginEvent(w, e, "daemon period", "daemon", 'B');
      w->Key("period").Int(e.index).Key("state").String(LadderName(e.code));
      w->Key("pkg_w").Number(e.a).Key("limit_w").Number(e.b);
      break;
    case TraceEventType::kPeriodEnd:
      BeginEvent(w, e, "daemon period", "daemon", 'E');
      w->Key("state").String(LadderName(e.code)).Key("latency_us").Number(e.a);
      break;
    case TraceEventType::kRedistribute:
      BeginEvent(w, e, "redistribute", "policy", 'i');
      w->Key("apps").Int(e.index).Key("changed").Int(e.code).Key("delta_w").Number(e.a);
      break;
    case TraceEventType::kAppTarget:
      BeginEvent(w, e, "app" + std::to_string(e.index) + " target_mhz", "policy", 'C');
      w->Key("mhz").Number(e.b);
      break;
    case TraceEventType::kMinFundingRevoke:
      BeginEvent(w, e, "min-funding revoke", "policy", 'i');
      w->Key("entry").Int(e.index).Key("bound").String(e.code != 0 ? "max" : "min");
      w->Key("value").Number(e.a);
      break;
    case TraceEventType::kLadderTransition:
      BeginEvent(w, e,
                 std::string("ladder ") + LadderName(e.index) + " -> " + LadderName(e.code),
                 "daemon", 'i');
      w->Key("from").String(LadderName(e.index)).Key("to").String(LadderName(e.code));
      w->Key("bad_streak").Number(e.a);
      break;
    case TraceEventType::kPstateWrite:
      BeginEvent(w, e, "pstate write", "msr", 'i');
      w->Key("apps").Int(e.index).Key("verified").Bool(e.code != 0);
      w->Key("max_mhz").Number(e.a).Key("min_mhz").Number(e.b);
      break;
    case TraceEventType::kClusterGrant:
      BeginEvent(w, e, NodeTrackName(e, "grant_w"), "cluster", 'C');
      w->Key("grant_w").Number(e.a).Key("reported_w").Number(e.b);
      break;
    case TraceEventType::kSloShift:
      BeginEvent(w, e, NodeTrackName(e, "slo_bias"), "cluster", 'C');
      w->Key("bias").Number(e.a).Key("p90_s").Number(e.b);
      break;
  }
  w->EndObject().EndObject();  // args, event
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  json::Writer w;
  w.BeginObject().Key("traceEvents").BeginArray();
  for (const TraceEvent& e : events) {
    WriteEvent(&w, e);
  }
  w.EndArray().Key("displayTimeUnit").String("ms").EndObject();
  return w.Finish();
}

std::string MetricsCsv(const MetricsRegistry& registry) {
  std::string out = "t_s";
  for (const std::string& name : registry.scalar_names()) {
    out.push_back(',');
    out.append(name);
  }
  out.push_back('\n');
  const size_t columns = registry.scalar_names().size();
  for (const MetricsRegistry::Row& row : registry.rows()) {
    json::AppendShortest(&out, row.t.value());
    for (size_t c = 0; c < columns; c++) {
      // Rows snapshotted before a metric existed are padded with 0.
      out.push_back(',');
      json::AppendShortest(&out, c < row.values.size() ? row.values[c] : 0.0);
    }
    out.push_back('\n');
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    PAPD_LOG_ERROR("obs: cannot open %s for writing", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  // fclose flushes the stdio buffer, so a full disk can surface only here.
  const bool closed = std::fclose(f) == 0;
  if (written != content.size() || !closed) {
    PAPD_LOG_ERROR("obs: short write to %s", path.c_str());
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace papd
