/**
 * @file
 * Structural validator for didt-metrics-v1 sidecar files and for the
 * Prometheus text exposition `didt_client stats --prom` emits.
 *
 * JSON mode checks a --metrics-out file against the checked-in schema
 * (schemas/didt-metrics-v1.json): schema tag, the run context's
 * members, metric member sets per kind, name ordering, histogram
 * bucket/bound consistency, and the presence of the always-emitted
 * metric names. Prometheus mode checks exposition-format invariants:
 * legal metric names, a TYPE declaration preceding every sample,
 * counters named *_total, labels only on histogram series and *_info
 * gauges, the didt_build_info run-context gauge, histogram bucket
 * cumulativity, and +Inf bucket == _count with _sum present. Exits 0
 * on success so check.sh can gate on either.
 *
 *   didt_metrics_check --schema schemas/didt-metrics-v1.json \
 *                      --input metrics.json
 *   didt_client stats --prom > stats.prom
 *   didt_metrics_check --prom-input stats.prom
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "didt/didt.hh"

using namespace didt;

namespace
{

int failures = 0;

template <typename... Args>
void
fail(Args &&...args)
{
    ++failures;
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    std::fprintf(stderr, "didt_metrics_check: %s\n", os.str().c_str());
}

/** The member named @p name, or null-kind reference on failure. */
const JsonValue *
member(const JsonValue &obj, const std::string &context,
       const std::string &name)
{
    const JsonValue *value = obj.find(name);
    if (value == nullptr)
        fail(context, ": missing member '", name, "'");
    return value;
}

void
checkHistogram(const JsonValue &entry, const std::string &context)
{
    const JsonValue *bounds = entry.find("bounds");
    const JsonValue *buckets = entry.find("buckets");
    const JsonValue *count = entry.find("count");
    if (bounds == nullptr || buckets == nullptr || count == nullptr)
        return; // missing members already reported
    if (buckets->items().size() != bounds->items().size() + 1)
        fail(context, ": expected ", bounds->items().size() + 1,
             " buckets for ", bounds->items().size(), " bounds, got ",
             buckets->items().size());
    double prev = -1.0e300;
    for (const JsonValue &b : bounds->items()) {
        if (b.asNumber() <= prev)
            fail(context, ": bounds not strictly ascending");
        prev = b.asNumber();
    }
    double total = 0.0;
    for (const JsonValue &b : buckets->items()) {
        if (b.asNumber() < 0.0)
            fail(context, ": negative bucket count");
        total += b.asNumber();
    }
    if (total != count->asNumber())
        fail(context, ": bucket counts sum to ", total,
             " but count says ", count->asNumber());
}

/** True for a legal exposition metric name. */
bool
legalMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name.front()))
        return false;
    for (char c : name)
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    return true;
}

bool
endsWith(const std::string &name, const std::string &suffix)
{
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Per-family running state while scanning histogram samples. */
struct HistogramState
{
    double lastBucket = -1.0;
    double infBucket = -1.0;
    double count = -1.0;
    bool sawSum = false;
};

/**
 * Validate Prometheus text exposition format as emitted by
 * obs::prometheusText (every family TYPE-declared before its samples,
 * including derived gauge *_max families).
 */
int
checkPrometheus(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        didt_fatal("cannot open ", path);

    std::map<std::string, std::string> types;
    std::map<std::string, HistogramState> histograms;
    std::size_t samples = 0;
    bool sawBuildInfo = false;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string context =
            path + ":" + std::to_string(lineno);
        if (line.empty())
            continue;
        if (line.front() == '#') {
            std::istringstream is(line);
            std::string hash, keyword, family, type;
            is >> hash >> keyword;
            if (keyword != "TYPE")
                continue; // HELP or free-form comment
            is >> family >> type;
            if (!legalMetricName(family))
                fail(context, ": illegal family name '", family, "'");
            if (type != "counter" && type != "gauge" &&
                type != "histogram")
                fail(context, ": unknown type '", type, "'");
            if (type == "counter" && !endsWith(family, "_total"))
                fail(context, ": counter '", family,
                     "' does not end in _total");
            if (!types.emplace(family, type).second)
                fail(context, ": family '", family, "' redeclared");
            continue;
        }

        // A sample: name[{labels}] value
        const std::size_t brace = line.find('{');
        const std::size_t space = line.find(' ');
        if (space == std::string::npos) {
            fail(context, ": sample has no value");
            continue;
        }
        const std::string name =
            line.substr(0, std::min(brace, space));
        std::string labels;
        std::string rest;
        if (brace != std::string::npos && brace < space) {
            const std::size_t close = line.find('}', brace);
            if (close == std::string::npos) {
                fail(context, ": unterminated label set");
                continue;
            }
            labels = line.substr(brace + 1, close - brace - 1);
            rest = line.substr(close + 1);
        } else {
            rest = line.substr(space);
        }
        if (!legalMetricName(name)) {
            fail(context, ": illegal metric name '", name, "'");
            continue;
        }
        double value = 0.0;
        try {
            std::size_t consumed = 0;
            value = std::stod(rest, &consumed);
            while (consumed < rest.size() &&
                   (rest[consumed] == ' ' || rest[consumed] == '\r'))
                ++consumed;
            if (consumed != rest.size())
                fail(context, ": trailing junk after value");
        } catch (const std::exception &) {
            fail(context, ": unparseable value '", rest, "'");
            continue;
        }
        ++samples;

        // Resolve the declaring family: exact for counters/gauges,
        // base name for histogram _bucket/_sum/_count series.
        std::string family = name;
        std::string series;
        for (const char *suffix : {"_bucket", "_sum", "_count"}) {
            const std::string base =
                endsWith(name, suffix) && name.size() > strlen(suffix)
                    ? name.substr(0, name.size() - strlen(suffix))
                    : std::string();
            auto it = types.find(base);
            if (!base.empty() && it != types.end() &&
                it->second == "histogram") {
                family = base;
                series = suffix;
                break;
            }
        }
        const auto type = types.find(family);
        if (type == types.end()) {
            fail(context, ": sample '", name,
                 "' has no preceding TYPE declaration");
            continue;
        }
        if (type->second != "histogram") {
            const bool info =
                type->second == "gauge" && endsWith(name, "_info");
            if (!labels.empty() && !info)
                fail(context, ": unexpected labels on '", name, "'");
            if (name == "didt_build_info") {
                sawBuildInfo = true;
                for (const char *label :
                     {"build_type=\"", "simd_level=\"", "failpoints=\"",
                      "jobs=\"", "host_cpus=\""})
                    if (labels.find(label) == std::string::npos)
                        fail(context, ": didt_build_info lacks label ",
                             label, "\"");
            }
            continue;
        }
        HistogramState &state = histograms[family];
        if (series == "_bucket") {
            if (labels.find("le=\"") == std::string::npos) {
                fail(context, ": bucket without le label");
                continue;
            }
            if (value < state.lastBucket)
                fail(context, ": bucket counts not cumulative");
            state.lastBucket = value;
            if (labels.find("le=\"+Inf\"") != std::string::npos)
                state.infBucket = value;
        } else if (series == "_sum") {
            state.sawSum = true;
        } else if (series == "_count") {
            state.count = value;
        } else {
            fail(context, ": bare sample '", name,
                 "' for histogram family");
        }
    }

    if (!sawBuildInfo)
        fail(path, ": no didt_build_info run-context gauge");
    for (const auto &[family, type] : types) {
        if (type != "histogram")
            continue;
        const auto it = histograms.find(family);
        if (it == histograms.end()) {
            fail(path, ": histogram '", family, "' has no samples");
            continue;
        }
        const HistogramState &state = it->second;
        if (state.infBucket < 0.0)
            fail(path, ": histogram '", family,
                 "' is missing its +Inf bucket");
        if (!state.sawSum)
            fail(path, ": histogram '", family, "' is missing _sum");
        if (state.count < 0.0)
            fail(path, ": histogram '", family, "' is missing _count");
        if (state.infBucket >= 0.0 && state.count >= 0.0 &&
            state.infBucket != state.count)
            fail(path, ": histogram '", family, "' +Inf bucket ",
                 state.infBucket, " != _count ", state.count);
    }

    if (failures != 0) {
        std::fprintf(stderr, "didt_metrics_check: FAILED (%d errors)\n",
                     failures);
        return 1;
    }
    std::printf("didt_metrics_check: OK (%zu families, %zu samples)\n",
                types.size(), samples);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.declare("schema", "schemas/didt-metrics-v1.json",
                 "schema description to validate against");
    opts.declare("input", "", "metrics JSON file to validate");
    opts.declare("prom-input", "",
                 "Prometheus text exposition file to validate "
                 "(didt_client stats --prom output)");
    opts.parse(argc, argv);
    if (const std::string prom = opts.get("prom-input");
        !prom.empty()) {
        if (!opts.get("input").empty())
            didt_fatal("--input and --prom-input are exclusive");
        return checkPrometheus(prom);
    }
    if (opts.get("input").empty())
        didt_fatal("--input or --prom-input is required");

    const JsonValue schema = readJsonFile(opts.get("schema"));
    const JsonValue doc = readJsonFile(opts.get("input"));

    const JsonValue *tag = member(doc, "document", "schema");
    const JsonValue *expected_tag = member(schema, "schema", "schema");
    if (tag != nullptr && expected_tag != nullptr &&
        tag->asString() != expected_tag->asString())
        fail("document: schema is '", tag->asString(), "', expected '",
             expected_tag->asString(), "'");

    if (const JsonValue *required = schema.find("required_context")) {
        if (const JsonValue *context = member(doc, "document", "context"))
            for (const JsonValue &name : required->items())
                member(*context, "context", name.asString());
    }

    const JsonValue *required_members =
        member(schema, "schema", "required_members");
    const JsonValue *metrics = member(doc, "document", "metrics");
    if (required_members == nullptr || metrics == nullptr) {
        std::fprintf(stderr, "didt_metrics_check: FAILED (%d errors)\n",
                     failures);
        return 1;
    }

    std::set<std::string> seen;
    std::string prev_name;
    for (const JsonValue &entry : metrics->items()) {
        const JsonValue *name = entry.find("name");
        const std::string context =
            name != nullptr ? name->asString() : "<unnamed metric>";
        if (name == nullptr) {
            fail(context, ": missing member 'name'");
            continue;
        }
        if (context <= prev_name && !prev_name.empty())
            fail(context, ": metrics not sorted by name (follows '",
                 prev_name, "')");
        prev_name = context;
        seen.insert(context);

        const JsonValue *kind = member(entry, context, "kind");
        if (kind == nullptr)
            continue;
        const JsonValue *members = required_members->find(kind->asString());
        if (members == nullptr) {
            fail(context, ": unknown kind '", kind->asString(), "'");
            continue;
        }
        for (const JsonValue &required : members->items())
            member(entry, context, required.asString());
        if (kind->asString() == "histogram")
            checkHistogram(entry, context);
    }

    if (const JsonValue *required = schema.find("required_metrics")) {
        for (const JsonValue &name : required->items())
            if (seen.find(name.asString()) == seen.end())
                fail("document: required metric '", name.asString(),
                     "' is absent");
    }

    if (failures != 0) {
        std::fprintf(stderr, "didt_metrics_check: FAILED (%d errors)\n",
                     failures);
        return 1;
    }
    std::printf("didt_metrics_check: OK (%zu metrics)\n",
                metrics->items().size());
    return 0;
}
