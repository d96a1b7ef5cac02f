#include "serve/protocol.hh"

#include "runner/result_json.hh"

namespace didt
{
namespace serve
{

namespace
{

/** The shared {"schema", "type", "id"} response envelope. */
JsonValue
envelope(const char *type, const std::string &id)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", kProtocolSchema);
    doc.set("type", type);
    doc.set("id", id);
    return doc;
}

} // namespace

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::BadRequest:
        return "bad_request";
    case ErrorCode::QueueFull:
        return "queue_full";
    case ErrorCode::ShuttingDown:
        return "shutting_down";
    case ErrorCode::Internal:
        return "internal";
    }
    return "internal";
}

bool
parseRequest(const std::string &payload, Request *request,
             std::string *error)
{
    JsonValue doc;
    try {
        doc = parseJson(payload);
    } catch (const std::exception &e) {
        *error = std::string("invalid JSON: ") + e.what();
        return false;
    }
    if (doc.kind() != JsonValue::Kind::Object) {
        *error = "request must be a JSON object";
        return false;
    }
    const JsonValue *schema = doc.find("schema");
    if (!schema || schema->kind() != JsonValue::Kind::String ||
        schema->asString() != kProtocolSchema) {
        *error = std::string("request schema must be \"") +
                 kProtocolSchema + "\"";
        return false;
    }

    Request parsed;
    if (const JsonValue *id = doc.find("id")) {
        if (id->kind() != JsonValue::Kind::String) {
            *error = "request 'id' must be a string";
            return false;
        }
        parsed.id = id->asString();
        // Stored at once, so a request rejected further down still
        // gets its bad_request answered under the caller's id.
        request->id = parsed.id;
    }

    const JsonValue *type = doc.find("type");
    if (!type || type->kind() != JsonValue::Kind::String) {
        *error = "request 'type' must be a string";
        return false;
    }
    const std::string &name = type->asString();
    if (name == "ping") {
        parsed.type = RequestType::Ping;
    } else if (name == "stats") {
        parsed.type = RequestType::Stats;
        if (const JsonValue *format = doc.find("format")) {
            if (format->kind() != JsonValue::Kind::String ||
                (format->asString() != "json" &&
                 format->asString() != "prometheus")) {
                *error = "stats 'format' must be \"json\" or "
                         "\"prometheus\"";
                return false;
            }
            parsed.wantPrometheus = format->asString() == "prometheus";
        }
    } else if (name == "characterize") {
        parsed.type = RequestType::Characterize;
        const JsonValue *spec = doc.find("spec");
        if (!spec) {
            *error = "characterize request requires a 'spec' object";
            return false;
        }
        if (!campaignSpecFromJson(*spec, &parsed.spec, error))
            return false;
        if (const JsonValue *timings = doc.find("timings")) {
            if (timings->kind() != JsonValue::Kind::Bool) {
                *error = "characterize 'timings' must be a boolean";
                return false;
            }
            parsed.wantTimings = timings->asBool();
        }
    } else if (name == "watch") {
        parsed.type = RequestType::Watch;
        if (const JsonValue *interval = doc.find("interval_ms")) {
            if (interval->kind() != JsonValue::Kind::Number ||
                !(interval->asNumber() >= 10.0)) {
                *error = "watch 'interval_ms' must be a number >= 10";
                return false;
            }
            parsed.watchIntervalMs = interval->asNumber();
        }
        if (const JsonValue *count = doc.find("count")) {
            if (count->kind() != JsonValue::Kind::Number ||
                !(count->asNumber() >= 0.0)) {
                *error = "watch 'count' must be a number >= 0";
                return false;
            }
            parsed.watchCount =
                static_cast<std::uint64_t>(count->asNumber());
        }
    } else if (name == "events") {
        parsed.type = RequestType::Events;
        if (const JsonValue *after = doc.find("after")) {
            if (after->kind() != JsonValue::Kind::Number ||
                !(after->asNumber() >= 0.0)) {
                *error = "events 'after' must be a number >= 0";
                return false;
            }
            parsed.eventsAfter =
                static_cast<std::uint64_t>(after->asNumber());
        }
        if (const JsonValue *limit = doc.find("limit")) {
            if (limit->kind() != JsonValue::Kind::Number ||
                !(limit->asNumber() >= 0.0)) {
                *error = "events 'limit' must be a number >= 0";
                return false;
            }
            parsed.eventsLimit =
                static_cast<std::uint64_t>(limit->asNumber());
        }
    } else {
        *error = "unknown request type '" + name + "'";
        return false;
    }
    *request = std::move(parsed);
    return true;
}

std::string
characterizeRequestJson(const std::string &id, const JsonValue &spec,
                        bool timings)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", kProtocolSchema);
    doc.set("type", "characterize");
    doc.set("id", id);
    doc.set("spec", spec);
    if (timings)
        doc.set("timings", true);
    return doc.dump();
}

std::string
pingRequestJson(const std::string &id)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", kProtocolSchema);
    doc.set("type", "ping");
    doc.set("id", id);
    return doc.dump();
}

std::string
statsRequestJson(const std::string &id, bool prometheus)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", kProtocolSchema);
    doc.set("type", "stats");
    doc.set("id", id);
    if (prometheus)
        doc.set("format", "prometheus");
    return doc.dump();
}

std::string
watchRequestJson(const std::string &id, double intervalMs,
                 std::uint64_t count)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", kProtocolSchema);
    doc.set("type", "watch");
    doc.set("id", id);
    doc.set("interval_ms", intervalMs);
    doc.set("count", static_cast<long long>(count));
    return doc.dump();
}

std::string
eventsRequestJson(const std::string &id, std::uint64_t after,
                  std::uint64_t limit)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", kProtocolSchema);
    doc.set("type", "events");
    doc.set("id", id);
    doc.set("after", static_cast<long long>(after));
    doc.set("limit", static_cast<long long>(limit));
    return doc.dump();
}

std::string
resultResponseJson(const std::string &id, JsonValue result,
                   const JsonValue *timings)
{
    JsonValue doc = envelope("result", id);
    doc.set("result", std::move(result));
    if (timings)
        doc.set("timings", *timings);
    return doc.dump();
}

std::string
pongResponseJson(const std::string &id)
{
    JsonValue doc = envelope("pong", id);
    JsonValue features = JsonValue::array();
    for (const char *feature : kProtocolFeatures)
        features.push(feature);
    doc.set("features", std::move(features));
    return doc.dump();
}

std::string
statsResponseJson(const std::string &id, JsonValue stats)
{
    JsonValue doc = envelope("stats", id);
    doc.set("stats", std::move(stats));
    return doc.dump();
}

std::string
statsPrometheusResponseJson(const std::string &id,
                            const std::string &text)
{
    JsonValue doc = envelope("stats", id);
    doc.set("prometheus", text);
    return doc.dump();
}

std::string
watchFrameJson(const std::string &id, std::uint64_t seq,
               JsonValue stats, JsonValue delta)
{
    JsonValue doc = envelope("watch", id);
    doc.set("seq", static_cast<long long>(seq));
    doc.set("stats", std::move(stats));
    doc.set("delta", std::move(delta));
    return doc.dump();
}

std::string
eventsResponseJson(const std::string &id,
                   const obs::EventLog::Query &query)
{
    JsonValue doc = envelope("events", id);
    JsonValue events = JsonValue::array();
    for (const obs::Event &event : query.events) {
        JsonValue e = JsonValue::object();
        e.set("seq", static_cast<long long>(event.seq));
        e.set("at_ms", event.atMs);
        e.set("type", event.type);
        e.set("detail", event.detail);
        events.push(std::move(e));
    }
    doc.set("events", std::move(events));
    doc.set("dropped", static_cast<long long>(query.dropped));
    doc.set("next", static_cast<long long>(query.next));
    return doc.dump();
}

std::string
errorResponseJson(const std::string &id, ErrorCode code,
                  const std::string &message)
{
    JsonValue doc = envelope("error", id);
    JsonValue err = JsonValue::object();
    err.set("code", errorCodeName(code));
    err.set("message", message);
    doc.set("error", std::move(err));
    return doc.dump();
}

} // namespace serve
} // namespace didt
