// The trace wire format, declared once.
//
// Each event's JSONL record is one row of the table below: its "ev"
// name and its ordered (key, member) fields. The writer
// (traceEventJson), the reader (parseTraceEventJson) and traceEventName
// all walk that table, with one writeValue/readValue overload per member
// type. A TraceEvent alternative without a row fails to compile, and a
// field added to a row is written and read back with no other edit.
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "dds/common/error.hpp"
#include "dds/common/json.hpp"
#include "dds/common/json_value.hpp"
#include "dds/obs/jsonl_sink.hpp"
#include "dds/obs/trace_reader.hpp"

namespace dds::obs {

namespace {

/// One wire field: its JSON key and the member it carries.
template <typename E, typename M>
struct Field {
  const char* key;
  M E::*member;
};

/// One wire record: the "ev" name (empty for the nested RejectedPlan)
/// and the fields in write order.
template <typename E, typename... M>
struct Record {
  std::string_view name;
  std::tuple<Field<E, M>...> fields;
};

template <typename E, typename... M>
constexpr Record<E, M...> record(std::string_view name,
                                 Field<E, M>... fields) {
  return {name, {fields...}};
}

// The table. Changing a name or a key is a trace-format break; the
// committed golden traces and `ddtrace --check` catch it.

constexpr auto wire(const RunHeaderEvent*) {
  using E = RunHeaderEvent;
  return record("run_header", Field{"scheduler", &E::scheduler},
                Field{"seed", &E::seed}, Field{"sigma", &E::sigma},
                Field{"omega_target", &E::omega_target},
                Field{"epsilon", &E::epsilon},
                Field{"horizon_s", &E::horizon_s},
                Field{"interval_s", &E::interval_s},
                Field{"backend", &E::backend});
}
constexpr auto wire(const IntervalBeginEvent*) {
  using E = IntervalBeginEvent;
  return record("interval_begin", Field{"t", &E::t},
                Field{"interval", &E::interval},
                Field{"input_rate", &E::input_rate});
}
constexpr auto wire(const IntervalEndEvent*) {
  using E = IntervalEndEvent;
  return record("interval_end", Field{"t", &E::t},
                Field{"interval", &E::interval}, Field{"omega", &E::omega},
                Field{"omega_bar", &E::omega_bar}, Field{"gamma", &E::gamma},
                Field{"cost", &E::cost},
                Field{"utilization", &E::utilization},
                Field{"backlog_msgs", &E::backlog_msgs},
                Field{"active_vms", &E::active_vms},
                Field{"allocated_cores", &E::allocated_cores});
}
constexpr auto wire(const VmAcquireEvent*) {
  using E = VmAcquireEvent;
  return record("vm_acquire", Field{"t", &E::t}, Field{"vm", &E::vm},
                Field{"class", &E::vm_class}, Field{"cores", &E::cores},
                Field{"price_per_hour", &E::price_per_hour},
                Field{"ready", &E::ready});
}
constexpr auto wire(const VmReleaseEvent*) {
  using E = VmReleaseEvent;
  return record("vm_release", Field{"t", &E::t}, Field{"vm", &E::vm},
                Field{"class", &E::vm_class},
                Field{"billed_cost", &E::billed_cost});
}
constexpr auto wire(const AcquisitionFailureEvent*) {
  using E = AcquisitionFailureEvent;
  return record("acquisition_failure", Field{"t", &E::t},
                Field{"class", &E::vm_class});
}
constexpr auto wire(const CoreAllocEvent*) {
  using E = CoreAllocEvent;
  return record("core_alloc", Field{"t", &E::t}, Field{"vm", &E::vm},
                Field{"pe", &E::pe}, Field{"delta", &E::delta});
}
constexpr auto wire(const AlternateSwitchEvent*) {
  using E = AlternateSwitchEvent;
  return record("alternate_switch", Field{"t", &E::t}, Field{"pe", &E::pe},
                Field{"from", &E::from}, Field{"to", &E::to},
                Field{"gamma_from", &E::gamma_from},
                Field{"gamma_to", &E::gamma_to});
}
constexpr auto wire(const StragglerQuarantineEvent*) {
  using E = StragglerQuarantineEvent;
  return record("straggler_quarantine", Field{"t", &E::t},
                Field{"vm", &E::vm},
                Field{"smoothed_ratio", &E::smoothed_ratio},
                Field{"evacuated_cores", &E::evacuated_cores});
}
constexpr auto wire(const StragglerRecoveryEvent*) {
  using E = StragglerRecoveryEvent;
  return record("straggler_recovery", Field{"t", &E::t},
                Field{"vm", &E::vm});
}
constexpr auto wire(const FaultInjectionEvent*) {
  using E = FaultInjectionEvent;
  return record("fault_injection", Field{"t", &E::t}, Field{"vm", &E::vm},
                Field{"family", &E::family},
                Field{"messages_lost", &E::messages_lost});
}
constexpr auto wire(const ProvisioningCompleteEvent*) {
  using E = ProvisioningCompleteEvent;
  return record("provisioning_complete", Field{"t", &E::t},
                Field{"vm", &E::vm});
}
constexpr auto wire(const PreemptionNoticeEvent*) {
  using E = PreemptionNoticeEvent;
  return record("preemption_notice", Field{"t", &E::t}, Field{"vm", &E::vm},
                Field{"preempt_at", &E::preempt_at});
}
constexpr auto wire(const PreemptionEvent*) {
  using E = PreemptionEvent;
  return record("preemption", Field{"t", &E::t}, Field{"vm", &E::vm},
                Field{"messages_lost", &E::messages_lost});
}
constexpr auto wire(const MigrationBeginEvent*) {
  using E = MigrationBeginEvent;
  return record("migration_begin", Field{"t", &E::t}, Field{"pe", &E::pe},
                Field{"backlog_fraction", &E::backlog_fraction},
                Field{"downtime_s", &E::downtime_s});
}
constexpr auto wire(const MigrationEndEvent*) {
  using E = MigrationEndEvent;
  return record("migration_end", Field{"t", &E::t}, Field{"pe", &E::pe});
}
constexpr auto wire(const OmegaViolationEvent*) {
  using E = OmegaViolationEvent;
  return record("omega_violation", Field{"t", &E::t},
                Field{"interval", &E::interval}, Field{"omega", &E::omega},
                Field{"omega_target", &E::omega_target});
}
constexpr auto wire(const RejectedPlan*) {
  using E = RejectedPlan;
  return record("", Field{"plan", &E::plan}, Field{"theta", &E::theta});
}
constexpr auto wire(const SchedulerDecisionEvent*) {
  using E = SchedulerDecisionEvent;
  return record("scheduler_decision", Field{"t", &E::t},
                Field{"interval", &E::interval}, Field{"phase", &E::phase},
                Field{"action", &E::action}, Field{"omega", &E::omega},
                Field{"omega_bar", &E::omega_bar},
                Field{"theta", &E::theta}, Field{"rejected", &E::rejected});
}
constexpr auto wire(const ForecastEvent*) {
  using E = ForecastEvent;
  return record("forecast", Field{"t", &E::t},
                Field{"interval", &E::interval}, Field{"model", &E::model},
                Field{"rates", &E::rates});
}
constexpr auto wire(const PreAcquireEvent*) {
  using E = PreAcquireEvent;
  return record("preacquire", Field{"t", &E::t},
                Field{"interval", &E::interval},
                Field{"peak_interval", &E::peak_interval},
                Field{"peak_rate", &E::peak_rate},
                Field{"lead_s", &E::lead_s}, Field{"vms", &E::vms},
                Field{"ready_by", &E::ready_by});
}

template <typename E>
constexpr auto kWire = wire(static_cast<const E*>(nullptr));

// Writer: one overload per member type.

void writeValue(JsonWriter& w, double v) { w.value(v); }
void writeValue(JsonWriter& w, std::int64_t v) { w.value(v); }
void writeValue(JsonWriter& w, std::uint32_t v) {
  w.value(std::uint64_t{v});
}
void writeValue(JsonWriter& w, std::uint64_t v) { w.value(v); }
void writeValue(JsonWriter& w, const std::string& v) { w.value(v); }
void writeValue(JsonWriter& w, const RejectedPlan& v);

template <typename T>
void writeValue(JsonWriter& w, const std::vector<T>& v) {
  w.beginArray();
  for (const T& item : v) writeValue(w, item);
  w.endArray();
}

template <typename E>
void writeFields(JsonWriter& w, const E& e) {
  std::apply(
      [&](const auto&... f) {
        ((w.key(f.key), writeValue(w, e.*f.member)), ...);
      },
      kWire<E>.fields);
}

void writeValue(JsonWriter& w, const RejectedPlan& v) {
  w.beginObject();
  writeFields(w, v);
  w.endObject();
}

// Reader: the same overloads, strict. Each failure names the key.

[[noreturn]] void notA(const std::string& what, const char* key) {
  throw IoError("trace field is not " + what + ": " + key);
}

/// Doubles also take the writer's non-finite string sentinels.
void readValue(const JsonValue& v, const char* key, double& out) {
  using Limits = std::numeric_limits<double>;
  const std::string* s = v.asString();
  if (const double* d = v.asNumber()) {
    out = *d;
  } else if (s != nullptr && *s == "NaN") {
    out = Limits::quiet_NaN();
  } else if (s != nullptr && *s == "Infinity") {
    out = Limits::infinity();
  } else if (s != nullptr && *s == "-Infinity") {
    out = -Limits::infinity();
  } else {
    notA("a number", key);
  }
}

/// Integers are read exactly and must fit the member.
template <typename T>
  requires std::is_integral_v<T>
void readValue(const JsonValue& v, const char* key, T& out) {
  const std::optional<T> n = jsonInteger<T>(v);
  if (!n.has_value()) {
    using Limits = std::numeric_limits<T>;
    notA("an integer in [" + std::to_string(Limits::min()) + ", " +
             std::to_string(Limits::max()) + "]",
         key);
  }
  out = *n;
}

void readValue(const JsonValue& v, const char* key, std::string& out) {
  const std::string* s = v.asString();
  if (s == nullptr) notA("a string", key);
  out = *s;
}

void readValue(const JsonValue& v, const char* key, RejectedPlan& out);

template <typename T>
void readValue(const JsonValue& v, const char* key, std::vector<T>& out) {
  const JsonArray* items = v.asArray();
  if (items == nullptr) notA("an array", key);
  for (const JsonValue& item : *items) {
    readValue(item, key, out.emplace_back());
  }
}

const JsonValue& field(const JsonObject& obj, const char* key) {
  const JsonValue* v = jsonFind(obj, key);
  if (v == nullptr) {
    throw IoError(std::string("trace record missing field: ") + key);
  }
  return *v;
}

template <typename E>
void readFields(const JsonObject& obj, E& e) {
  std::apply(
      [&](const auto&... f) {
        (readValue(field(obj, f.key), f.key, e.*f.member), ...);
      },
      kWire<E>.fields);
}

void readValue(const JsonValue& v, const char* key, RejectedPlan& out) {
  const JsonObject* obj = v.asObject();
  if (obj == nullptr) notA("an object", key);
  readFields(*obj, out);
}

/// The alternative whose row is named `ev`, read from `obj`.
template <std::size_t... I>
TraceEvent readEvent(const std::string& ev, const JsonObject& obj,
                     std::index_sequence<I...>) {
  TraceEvent event;
  const bool known =
      ((kWire<std::variant_alternative_t<I, TraceEvent>>.name == ev &&
        (readFields(obj, event.emplace<I>()), true)) ||
       ...);
  if (!known) throw IoError("unknown trace event type: " + ev);
  return event;
}

}  // namespace

std::string_view traceEventName(const TraceEvent& e) {
  return std::visit(
      [](const auto& ev) { return kWire<std::decay_t<decltype(ev)>>.name; },
      e);
}

std::string traceEventJson(const TraceEvent& event) {
  JsonWriter w{{.style = JsonWriter::Style::Compact,
                .non_finite = JsonWriter::NonFinitePolicy::StringSentinel}};
  w.beginObject();
  w.key("ev").value(std::string(traceEventName(event)));
  std::visit([&w](const auto& ev) { writeFields(w, ev); }, event);
  w.endObject();
  return w.str();
}

TraceEvent parseTraceEventJson(const std::string& line) {
  const JsonValue root = parseJson(line);
  const JsonObject* obj = root.asObject();
  if (obj == nullptr) throw IoError("trace record is not a JSON object");
  std::string ev;
  readValue(field(*obj, "ev"), "ev", ev);
  return readEvent(ev, *obj,
                   std::make_index_sequence<std::variant_size_v<TraceEvent>>{});
}

std::vector<TraceEvent> readTraceJsonl(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      events.push_back(parseTraceEventJson(line));
    } catch (const IoError& e) {
      throw IoError("trace line " + std::to_string(line_no) + ": " +
                    e.what());
    }
  }
  return events;
}

}  // namespace dds::obs
