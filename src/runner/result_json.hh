/**
 * @file
 * Structured campaign results: the campaign JSON / CSV serializers on
 * top of the shared JSON document model (util/json.hh).
 *
 * The writer is byte-deterministic for a given document (object keys
 * keep insertion order, numbers format identically on every run), so
 * two campaign runs that compute the same values produce identical
 * files regardless of --jobs.
 */

#ifndef DIDT_RUNNER_RESULT_JSON_HH
#define DIDT_RUNNER_RESULT_JSON_HH

#include <string>

#include "util/json.hh"

namespace didt
{

struct CampaignResult;
struct CampaignSpec;

/**
 * Render a campaign spec as a JSON object — the "spec" section of the
 * campaign document, and the request payload of the didt-serve-v1
 * protocol (serve/protocol.hh).
 */
JsonValue campaignSpecToJson(const CampaignSpec &spec);

/**
 * Parse a campaign spec from the JSON object campaignSpecToJson
 * writes. Every field is optional and defaults to the CampaignSpec
 * default, so a request may carry only what it overrides. Never
 * panics: on a type mismatch, an unknown benchmark or mix, or a spec
 * CampaignSpec::validate rejects it fills @p error and returns false,
 * leaving @p spec unspecified — the daemon turns that into a
 * per-request error response.
 */
bool campaignSpecFromJson(const JsonValue &json, CampaignSpec *spec,
                          std::string *error);

/**
 * Render a campaign result as a JSON document.
 *
 * @param include_timing add the wall-clock section; off by default so
 *        outputs are byte-identical across --jobs settings.
 */
JsonValue campaignToJson(const CampaignResult &result,
                         bool include_timing = false);

/** Write campaign JSON to a file; fatal on I/O errors. */
void writeCampaignJson(const std::string &path,
                       const CampaignResult &result,
                       bool include_timing = false);

/** Write the per-cell table as CSV; fatal on I/O errors. */
void writeCampaignCsv(const std::string &path,
                      const CampaignResult &result);

} // namespace didt

#endif // DIDT_RUNNER_RESULT_JSON_HH
