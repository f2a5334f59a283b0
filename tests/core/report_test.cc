/**
 * @file
 * Design-report generator tests.
 */

#include <gtest/gtest.h>

#include "core/report.hh"
#include "core/soc_catalog.hh"

namespace mindful::core {
namespace {

TEST(ReportTest, ContainsAllSectionsByDefault)
{
    std::string report = designReport(socById(1));
    EXPECT_NE(report.find("# MINDFUL design report: BISC"),
              std::string::npos);
    EXPECT_NE(report.find("## Overview"), std::string::npos);
    EXPECT_NE(report.find("## Raw-data streaming"), std::string::npos);
    EXPECT_NE(report.find("## On-implant decoding"), std::string::npos);
    EXPECT_NE(report.find("Optimization ladder"), std::string::npos);
    EXPECT_NE(report.find("## Multi-implant option"), std::string::npos);
}

TEST(ReportTest, OverviewCarriesTheNumbers)
{
    std::string report = designReport(socById(1));
    EXPECT_NE(report.find("144 mm^2"), std::string::npos);
    EXPECT_NE(report.find("38.88 mW"), std::string::npos);
    EXPECT_NE(report.find("SAFE"), std::string::npos);
}

TEST(ReportTest, InfeasibleDesignIsReportedHonestly)
{
    // Shen cannot host the decoders at 1024 channels (Fig. 10).
    std::string report = designReport(socById(4));
    EXPECT_NE(report.find("| MLP | no"), std::string::npos);
}

TEST(ReportTest, WorksForEveryCataloguedDesign)
{
    for (const auto &soc : socCatalog()) {
        std::string report = designReport(soc);
        EXPECT_GT(report.size(), 500u) << soc.name;
        EXPECT_NE(report.find(soc.name), std::string::npos);
    }
}

} // namespace
} // namespace mindful::core
