// Campaigns as a library: build a spec in code, run it, and consume the
// results programmatically — the same machinery behind `nobl run`, without
// shelling out. Useful as a template for embedding sweeps in notebooks,
// services, or custom analysis drivers.
#include <iostream>
#include <sstream>

#include "cli/campaign.hpp"

int main() {
  using namespace nobl;

  // A small two-algorithm campaign across both engines. Specs can also be
  // parsed from text (parse_campaign_spec) or resolved from the builtins
  // (builtin_campaign("ci-smoke")).
  CampaignSpec spec;
  spec.name = "example";
  spec.sweeps = {{"fft", {256}}, {"broadcast", {256}}};
  spec.engines = {ExecutionPolicy::sequential(), ExecutionPolicy::parallel(2)};

  const CampaignResult result = run_campaign(spec);

  // Consume results as structs...
  std::cout << "campaign \"" << result.spec.name << "\": " << result.runs.size()
            << " runs\n";
  for (const RunResult& run : result.runs) {
    double worst_ratio = 0;
    for (const CellResult& cell : run.cells) {
      worst_ratio = std::max(worst_ratio, cell.ratio_lb);
    }
    std::cout << "  " << run.algorithm << " n=" << run.n << " [" << run.engine
              << "]  supersteps=" << run.tables.supersteps()
              << "  worst H/LB=" << worst_ratio
              << "  alpha=" << run.certification.alpha
              << "  guarantee=" << run.certification.guarantee() << "\n";
  }

  // ...or as the schema-versioned JSON document `nobl check` validates.
  std::ostringstream json;
  write_campaign_json(json, result);
  const std::vector<std::string> violations =
      validate_campaign_json(JsonValue::parse(json.str()));
  std::cout << "result document: " << json.str().size() << " bytes, "
            << (violations.empty() ? "schema-valid" : "INVALID") << "\n";
  return violations.empty() ? 0 : 1;
}
