#include "src/obs/exporters.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/bemodel/be_job_spec.h"
#include "src/common/json.h"
#include "src/control/top_controller.h"
#include "src/fault/fault_schedule.h"

namespace rhythm {
namespace {

// Shared JSON primitives (src/common/json.h): %.17g doubles and string
// escaping, the same routines the serving daemon renders with.
std::string Num(double value) { return JsonNum(value); }
std::string EscapeJson(const std::string& text) { return JsonEscape(text); }

// Compact formatting for human-readable output.
std::string Short(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

// The per-kind name of the `code` byte ("AllowBEGrowth", "cpu-llc",
// "PodCrash", ...). Decorative in JSONL; the numeric fields are authoritative.
std::string CodeName(const ObsEvent& event) {
  switch (event.kind) {
    case ObsKind::kDecision:
      return BeActionName(static_cast<BeAction>(event.code));
    case ObsKind::kActuation:
      return ObsKnobName(static_cast<ObsKnob>(event.code));
    case ObsKind::kFault:
      return FaultKindName(static_cast<FaultKind>(event.code));
    case ObsKind::kSloViolation:
      return ObsSloScopeName(static_cast<ObsSloScope>(event.code));
    case ObsKind::kBeLifecycle:
      return ObsBeOpName(static_cast<ObsBeOp>(event.code));
    case ObsKind::kPlacement:
      return ObsPlacementOpName(static_cast<ObsPlacementOp>(event.code));
  }
  return "?";
}

std::string DetailName(const ObsEvent& event) {
  switch (event.kind) {
    case ObsKind::kDecision:
      return ObsDecisionPhaseName(static_cast<ObsDecisionPhase>(event.detail));
    case ObsKind::kActuation:
      return event.detail != 0 ? "ok" : "failed";
    case ObsKind::kFault:
      return ObsFaultEdgeName(static_cast<ObsFaultEdge>(event.detail));
    case ObsKind::kPlacement:
      // The co-located BE for placed/churned groups; empty for epoch marks,
      // solo and unplaced groups (no BE landed).
      switch (static_cast<ObsPlacementOp>(event.code)) {
        case ObsPlacementOp::kGroupPlaced:
        case ObsPlacementOp::kChurn:
        case ObsPlacementOp::kFailover:
          return BeJobKindName(static_cast<BeJobKind>(event.detail));
        case ObsPlacementOp::kDegraded:
          return event.detail != 0 ? "enter" : "exit";
        case ObsPlacementOp::kEpochBegin:
        case ObsPlacementOp::kGroupSolo:
        case ObsPlacementOp::kGroupUnplaced:
        case ObsPlacementOp::kTickBarrier:
        case ObsPlacementOp::kMachineDown:
        case ObsPlacementOp::kMachineUp:
        case ObsPlacementOp::kGroupDown:
          return "";
      }
      return "";
    case ObsKind::kSloViolation:
    case ObsKind::kBeLifecycle:
      return "";
  }
  return "";
}

// One JSONL line, parsed by the strict reader in src/common/json.h. Field
// accessors throw std::runtime_error quoting the line when a field has the
// wrong type or a required one is missing; the optional forms leave their
// output untouched when the field is absent.
class JsonlLine {
 public:
  explicit JsonlLine(const std::string& text) : text_(text) {
    std::string error;
    if (!ParseJson(text, &doc_, &error)) {
      Fail(error);
    }
    if (!doc_.is_object()) {
      Fail("line is not a JSON object");
    }
  }

  bool String(const char* key, std::string* out) const {
    const JsonValue* value = Get(key, JsonValue::Type::kString);
    if (value != nullptr) {
      *out = value->string;
    }
    return value != nullptr;
  }

  bool Number(const char* key, double* out) const {
    const JsonValue* value = Get(key, JsonValue::Type::kNumber);
    if (value != nullptr) {
      *out = value->number;
    }
    return value != nullptr;
  }

  double Number(const char* key) const {
    double out = 0.0;
    if (!Number(key, &out)) {
      Fail(std::string("missing numeric field '") + key + "'");
    }
    return out;
  }

  // Integers are read exactly (64-bit seeds and counters survive).
  bool UInt(const char* key, uint64_t* out) const {
    const JsonValue* value = Get(key, JsonValue::Type::kNumber);
    if (value != nullptr && !value->GetUInt64(out)) {
      Fail(std::string("field '") + key + "' is not an unsigned integer");
    }
    return value != nullptr;
  }

  int64_t Int(const char* key) const {
    const JsonValue* value = Get(key, JsonValue::Type::kNumber);
    int64_t out = 0;
    if (value == nullptr || !value->GetInt64(&out)) {
      Fail(std::string("missing integer field '") + key + "'");
    }
    return out;
  }

  // The array field `key`, or null when absent.
  const JsonValue* Array(const char* key) const {
    return Get(key, JsonValue::Type::kArray);
  }

  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("recording JSONL: " + what + " in: " + text_);
  }

 private:
  const JsonValue* Get(const char* key, JsonValue::Type type) const {
    const JsonValue* value = doc_.Find(key);
    if (value != nullptr && value->type != type) {
      Fail(std::string("field '") + key + "' has the wrong type");
    }
    return value;
  }

  const std::string& text_;
  JsonValue doc_;
};

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

std::string DescribeEvent(const ObsEvent& event) {
  std::ostringstream out;
  char stamp[64];
  std::snprintf(stamp, sizeof(stamp), "t=%9.3f", event.time_s);
  out << stamp << " machine=" << event.machine << ' ' << ObsKindName(event.kind) << ' '
      << CodeName(event);
  switch (event.kind) {
    case ObsKind::kDecision:
      out << " phase=" << DetailName(event) << " load=" << Short(event.a)
          << " slack=" << Short(event.b) << " loadlimit=" << Short(event.c)
          << " slacklimit=" << Short(event.d);
      break;
    case ObsKind::kActuation: {
      out << ' ' << DetailName(event);
      switch (static_cast<ObsKnob>(event.code)) {
        case ObsKnob::kCpuLlc:
          out << " cores" << (event.a >= 0 ? "+" : "") << Short(event.a) << " ways"
              << (event.b >= 0 ? "+" : "") << Short(event.b);
          break;
        case ObsKnob::kMemory:
          out << " gb" << (event.a >= 0 ? "+" : "") << Short(event.a);
          break;
        case ObsKnob::kFrequency:
          out << " ghz=" << Short(event.a);
          break;
        case ObsKnob::kSuspend:
        case ObsKnob::kResume:
          out << " instances=" << Short(event.a);
          break;
        case ObsKnob::kStop:
          out << " killed=" << Short(event.a);
          break;
        case ObsKnob::kLaunch:
          out << " launched=" << Short(event.a);
          break;
      }
      break;
    }
    case ObsKind::kFault:
      out << ' ' << DetailName(event);
      if (event.a != 0.0) {
        out << " magnitude=" << Short(event.a);
      }
      if (event.b != 0.0) {
        out << " duration=" << Short(event.b);
      }
      break;
    case ObsKind::kSloViolation:
      out << " slack=" << Short(event.a) << " tail_ms=" << Short(event.b);
      break;
    case ObsKind::kBeLifecycle:
      out << " count=" << Short(event.a);
      if (event.b != 0.0) {
        out << " pending=" << Short(event.b);
      }
      break;
    case ObsKind::kPlacement:
      switch (static_cast<ObsPlacementOp>(event.code)) {
        case ObsPlacementOp::kEpochBegin:
          out << " epoch=" << Short(event.a) << " load_scale=" << Short(event.b);
          break;
        case ObsPlacementOp::kMachineDown:
          out << " start=" << Short(event.a) << " downtime=" << Short(event.b);
          break;
        case ObsPlacementOp::kMachineUp:
          out << " rejoin=" << Short(event.a);
          break;
        case ObsPlacementOp::kFailover: {
          const std::string be = DetailName(event);
          if (!be.empty()) {
            out << ' ' << be;
          }
          out << " group=" << Short(event.a) << " pods=" << Short(event.b)
              << " incarnation=" << Short(event.c)
              << " latency_s=" << Short(event.d);
          break;
        }
        case ObsPlacementOp::kGroupDown:
          out << " group=" << Short(event.a) << " pods=" << Short(event.b);
          break;
        case ObsPlacementOp::kDegraded:
          out << ' ' << DetailName(event) << " down=" << Short(event.a)
              << " dead_fraction=" << Short(event.b);
          break;
        default: {
          const std::string be = DetailName(event);
          if (!be.empty()) {
            out << ' ' << be;
          }
          out << " group=" << Short(event.a) << " pods=" << Short(event.b)
              << " score=" << Short(event.c) << " load=" << Short(event.d);
          break;
        }
      }
      break;
  }
  return out.str();
}

std::string ToJsonl(const Recording& recording) {
  std::ostringstream out;
  const RecordingMeta& meta = recording.meta;
  out << "{\"type\":\"meta\",\"app\":\"" << EscapeJson(meta.app) << "\",\"be\":\""
      << EscapeJson(meta.be) << "\",\"controller\":\"" << EscapeJson(meta.controller)
      << "\",\"seed\":" << meta.seed << ",\"sla_ms\":" << Num(meta.sla_ms)
      << ",\"period_s\":" << Num(meta.controller_period_s) << ",\"pods\":[";
  for (size_t i = 0; i < meta.pods.size(); ++i) {
    out << (i ? "," : "") << '"' << EscapeJson(meta.pods[i]) << '"';
  }
  out << "],\"events_total\":" << recording.events_total
      << ",\"events_dropped\":" << recording.events_dropped << "}\n";

  for (const ObsEvent& event : recording.events) {
    out << "{\"type\":\"event\",\"t\":" << Num(event.time_s)
        << ",\"machine\":" << event.machine
        << ",\"k\":" << static_cast<int>(event.kind)
        << ",\"code\":" << static_cast<int>(event.code)
        << ",\"detail\":" << static_cast<int>(event.detail) << ",\"a\":" << Num(event.a)
        << ",\"b\":" << Num(event.b) << ",\"c\":" << Num(event.c)
        << ",\"d\":" << Num(event.d) << ",\"label\":\""
        << EscapeJson(std::string(ObsKindName(event.kind)) + " " + CodeName(event))
        << "\"}\n";
  }

  for (const auto& metric : recording.metrics) {
    out << "{\"type\":\"metric\",\"name\":\"" << EscapeJson(metric.name)
        << "\",\"mtype\":" << static_cast<int>(metric.type)
        << ",\"q\":" << Num(metric.quantile) << ",\"obs\":" << metric.observations
        << ",\"current\":" << Num(metric.current) << ",\"points\":[";
    const auto& points = metric.timeline.points();
    for (size_t i = 0; i < points.size(); ++i) {
      out << (i ? "," : "") << '[' << Num(points[i].time) << ',' << Num(points[i].value)
          << ']';
    }
    out << "]}\n";
  }
  return out.str();
}

Recording FromJsonl(const std::string& jsonl) {
  Recording recording;
  bool saw_meta = false;
  std::istringstream in(jsonl);
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty()) {
      continue;
    }
    const JsonlLine line(text);
    std::string type;
    if (!line.String("type", &type)) {
      line.Fail("line without \"type\"");
    }
    if (type == "meta") {
      saw_meta = true;
      RecordingMeta& meta = recording.meta;
      line.String("app", &meta.app);
      line.String("be", &meta.be);
      line.String("controller", &meta.controller);
      line.UInt("seed", &meta.seed);
      line.Number("sla_ms", &meta.sla_ms);
      line.Number("period_s", &meta.controller_period_s);
      if (const JsonValue* pods = line.Array("pods")) {
        for (const JsonValue& pod : pods->array) {
          if (!pod.is_string()) {
            line.Fail("\"pods\" must hold strings");
          }
          meta.pods.push_back(pod.string);
        }
      }
      line.UInt("events_total", &recording.events_total);
      line.UInt("events_dropped", &recording.events_dropped);
    } else if (type == "event") {
      ObsEvent event;
      event.time_s = line.Number("t");
      event.machine = static_cast<int32_t>(line.Int("machine"));
      event.kind = static_cast<ObsKind>(line.Int("k"));
      event.code = static_cast<uint8_t>(line.Int("code"));
      event.detail = static_cast<uint8_t>(line.Int("detail"));
      event.a = line.Number("a");
      event.b = line.Number("b");
      event.c = line.Number("c");
      event.d = line.Number("d");
      recording.events.push_back(event);
    } else if (type == "metric") {
      MetricsRegistry::Metric metric;
      if (!line.String("name", &metric.name)) {
        line.Fail("metric without name");
      }
      uint64_t mtype = 0;
      if (line.UInt("mtype", &mtype)) {
        metric.type = static_cast<MetricType>(mtype);
      }
      line.Number("q", &metric.quantile);
      line.UInt("obs", &metric.observations);
      line.Number("current", &metric.current);
      if (const JsonValue* points = line.Array("points")) {
        for (const JsonValue& point : points->array) {
          if (!point.is_array() || point.array.size() != 2 ||
              !point.array[0].is_number() || !point.array[1].is_number()) {
            line.Fail("\"points\" must hold [time, value] pairs");
          }
          metric.timeline.Add(point.array[0].number, point.array[1].number);
        }
      }
      recording.metrics.push_back(std::move(metric));
    }
    // Unknown types: skipped for forward compatibility.
  }
  if (!saw_meta) {
    throw std::runtime_error("recording JSONL: no meta line found");
  }
  return recording;
}

std::string ToPerfettoJson(const Recording& recording) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"app\":\""
      << EscapeJson(recording.meta.app) << "\",\"be\":\"" << EscapeJson(recording.meta.be)
      << "\",\"controller\":\"" << EscapeJson(recording.meta.controller)
      << "\",\"seed\":" << recording.meta.seed << "},\"traceEvents\":[";
  bool first = true;
  const auto emit = [&out, &first](const std::string& json) {
    out << (first ? "\n" : ",\n") << json;
    first = false;
  };

  // Process tracks: pid 0 = cluster-wide, pid m+1 = machine m.
  emit("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"cluster\"}}");
  emit("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_sort_index\",\"args\":{\"sort_index\":-1}}");
  for (int pod = 0; pod < recording.pod_count(); ++pod) {
    std::ostringstream line;
    line << "{\"ph\":\"M\",\"pid\":" << pod + 1
         << ",\"name\":\"process_name\",\"args\":{\"name\":\"machine " << pod << " — "
         << EscapeJson(recording.meta.pods[static_cast<size_t>(pod)]) << "\"}}";
    emit(line.str());
  }

  // Decisions become slices as wide as the control period; everything else is
  // an instant. tid 1 = controller, tid 2 = actuations, tid 3 = events.
  const double decision_us = recording.meta.controller_period_s * 1e6;
  for (const ObsEvent& event : recording.events) {
    const int pid = event.machine >= 0 ? event.machine + 1 : 0;
    const double ts = event.time_s * 1e6;
    std::ostringstream line;
    switch (event.kind) {
      case ObsKind::kDecision:
        line << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":1,\"ts\":" << Num(ts)
             << ",\"dur\":" << Num(decision_us) << ",\"cat\":\"decision\",\"name\":\""
             << EscapeJson(CodeName(event)) << "\",\"args\":{\"phase\":\""
             << DetailName(event) << "\",\"load\":" << Num(event.a)
             << ",\"slack\":" << Num(event.b) << ",\"loadlimit\":" << Num(event.c)
             << ",\"slacklimit\":" << Num(event.d) << "}}";
        break;
      case ObsKind::kActuation:
        line << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":2,\"ts\":" << Num(ts)
             << ",\"cat\":\"actuation\",\"name\":\"" << EscapeJson(CodeName(event))
             << (event.detail != 0 ? "" : " FAILED") << "\",\"args\":{\"a\":" << Num(event.a)
             << ",\"b\":" << Num(event.b) << "}}";
        break;
      case ObsKind::kFault:
        line << "{\"ph\":\"i\",\"s\":\"" << (event.machine >= 0 ? 'p' : 'g')
             << "\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << Num(ts)
             << ",\"cat\":\"fault\",\"name\":\"" << EscapeJson(CodeName(event)) << ' '
             << DetailName(event) << "\",\"args\":{\"magnitude\":" << Num(event.a)
             << ",\"duration_s\":" << Num(event.b) << "}}";
        break;
      case ObsKind::kSloViolation:
        line << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << Num(ts)
             << ",\"cat\":\"slo\",\"name\":\"SLO violation (" << CodeName(event)
             << ")\",\"args\":{\"slack\":" << Num(event.a)
             << ",\"tail_ms\":" << Num(event.b) << "}}";
        break;
      case ObsKind::kBeLifecycle:
        line << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << Num(ts)
             << ",\"cat\":\"be\",\"name\":\"be " << CodeName(event)
             << "\",\"args\":{\"count\":" << Num(event.a) << "}}";
        break;
      case ObsKind::kPlacement:
        line << "{\"ph\":\"i\",\"s\":\"" << (event.machine >= 0 ? 'p' : 'g')
             << "\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << Num(ts)
             << ",\"cat\":\"placement\",\"name\":\"place " << CodeName(event)
             << "\",\"args\":{\"group\":" << Num(event.a) << ",\"pods\":" << Num(event.b)
             << ",\"score\":" << Num(event.c) << ",\"load\":" << Num(event.d) << "}}";
        break;
    }
    emit(line.str());
  }

  // Metric timelines as counter tracks. Per-pod metrics ("pod3.cpu_util") go
  // on their machine's track; everything else on the cluster track.
  for (const auto& metric : recording.metrics) {
    int pid = 0;
    if (metric.name.compare(0, 3, "pod") == 0) {
      const size_t dot = metric.name.find('.');
      if (dot != std::string::npos && dot > 3) {
        pid = std::atoi(metric.name.c_str() + 3) + 1;
      }
    }
    for (const auto& point : metric.timeline.points()) {
      std::ostringstream line;
      line << "{\"ph\":\"C\",\"pid\":" << pid << ",\"ts\":" << Num(point.time * 1e6)
           << ",\"name\":\"" << EscapeJson(metric.name) << "\",\"args\":{\"value\":"
           << Num(point.value) << "}}";
      emit(line.str());
    }
  }

  out << "\n]}\n";
  return out.str();
}

std::string ToMetricsCsv(const Recording& recording) {
  std::ostringstream out;
  out << "time_s";
  size_t rows = 0;
  for (const auto& metric : recording.metrics) {
    out << ',' << metric.name;
    rows = std::max(rows, metric.timeline.size());
  }
  out << '\n';
  // Timelines are aligned (one Snapshot stamps every metric); late-registered
  // metrics simply leave early cells blank.
  for (size_t row = 0; row < rows; ++row) {
    double time = 0.0;
    for (const auto& metric : recording.metrics) {
      if (row < metric.timeline.size()) {
        time = metric.timeline.points()[row].time;
        break;
      }
    }
    out << Num(time);
    for (const auto& metric : recording.metrics) {
      const auto& points = metric.timeline.points();
      out << ',';
      if (row < points.size()) {
        out << Num(points[row].value);
      }
    }
    out << '\n';
  }
  return out.str();
}

bool WriteJsonl(const Recording& recording, const std::string& path) {
  return WriteFile(path, ToJsonl(recording));
}

bool WritePerfettoTrace(const Recording& recording, const std::string& path) {
  return WriteFile(path, ToPerfettoJson(recording));
}

bool WriteMetricsCsv(const Recording& recording, const std::string& path) {
  return WriteFile(path, ToMetricsCsv(recording));
}

Recording LoadJsonl(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read recording: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return FromJsonl(buffer.str());
}

}  // namespace rhythm
