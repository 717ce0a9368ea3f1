/// \file scenarios.hpp
/// Named, paper-anchored experiment scenarios — the single source of the
/// workload configurations used across benches, examples, and mflb_cli.
///
/// Each registry entry is a set of Table-1-style system parameters
/// (`ExperimentConfig`, which also carries heterogeneous server speeds and
/// the router, and resolves into every simulator's config). Callers resolve
/// a scenario by name and then override the swept dimension (dt, M, ...), so
/// a new workload is one registry entry instead of a new binary.
///
/// Adding a scenario: append one `Scenario` in `scenario_registry()`
/// (src/core/scenarios.cpp) with a unique kebab-case name and a one-line
/// summary naming the paper artifact or extension it anchors to; every entry
/// is automatically covered by tests/test_scenarios.cpp (unique names,
/// constructible systems) and listed by `mflb_cli --mode scenarios`.
#pragma once

#include "core/config.hpp"

#include <string>
#include <string_view>
#include <vector>

namespace mflb {

/// One named workload: its Table-1-style parameters.
struct Scenario {
    std::string name;    ///< unique kebab-case id, e.g. "table1".
    std::string summary; ///< one line: which paper artifact / extension.
    ExperimentConfig experiment;
};

/// All registered scenarios, in presentation order.
const std::vector<Scenario>& scenario_registry();

/// Looks a scenario up by name; nullptr if unknown.
const Scenario* find_scenario(std::string_view name);

/// Looks a scenario up by name; throws std::invalid_argument naming the
/// known scenarios if it does not exist.
const Scenario& scenario_or_die(std::string_view name);

/// "name - summary" lines for --help texts and the CLI listing.
std::string scenario_list_text();

/// Sets the fleet size M' of `experiment`, resampling its per-queue server
/// speeds (if any) as speed'[j] = speed[⌊j·M/M'⌋], so the speed classes
/// keep their fractions; N and every other field are left alone.
void resize_fleet(ExperimentConfig& experiment, std::size_t num_queues);

} // namespace mflb
