/**
 * @file
 * Markdown design-report generator.
 *
 * Runs every MINDFUL study against one SoC design and renders the
 * results as a self-contained markdown document — the artifact a
 * design team would circulate when assessing an implant proposal.
 */

#ifndef MINDFUL_CORE_REPORT_HH
#define MINDFUL_CORE_REPORT_HH

#include <string>

#include "core/soc_design.hh"

namespace mindful::core {

/**
 * Render the full design report for @p design: the overview, the
 * communication-centric studies (Secs. 5.1-5.2), the
 * computation-centric studies with the Sec. 6.2 optimization ladder
 * (Secs. 5.3 + 6.1) and the multi-implant extension, each per-scale
 * table at 2048, 4096 and 8192 channels.
 */
std::string designReport(const SocDesign &design);

} // namespace mindful::core

#endif // MINDFUL_CORE_REPORT_HH
