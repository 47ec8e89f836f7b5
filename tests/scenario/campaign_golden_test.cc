// Determinism pins for simulator hot-path rewrites: the smoke_tiny and
// partition_heal campaign CSVs must stay byte-identical across refactors.
// The smoke_tiny golden has been re-baselined twice, each time for one
// stated reason: (1) when topology link generation moved from scan-order
// shadowing draws to pair-keyed RNG streams (seed, from, to); (2) when the
// separate sequential engine was retired and shards = 1 became the sharded
// engine run as one inline shard, whose MAC draws backoff, link loss and
// ACKs from keyed RNG streams instead of one shared stream -- a different
// random universe, but the one every shard count already reproduced bit
// for bit. If a test fails after an intentional behavior change,
// regenerate its golden with:
//   scoop_campaign --scenario=<name> --threads=1 --csv=...
#include <gtest/gtest.h>

#include "scenario/campaign.h"
#include "scenario/campaign_reporter.h"
#include "scenario/scenario_registry.h"

namespace scoop::scenario {
namespace {

constexpr char kGoldenSmokeTinyCsv[] =
    "scenario,policy,trial,data,summary,mapping,query,reply,total,total_excl_beacons,"
    "retransmissions,mac_drops,storage_success,owner_hit_rate,query_success,"
    "summary_delivery,readings_lost,readings_orphaned,readings_rehomed,"
    "queries_reissued,parent_losses,send_retries,readings_produced,queries_issued,"
    "tuples_returned,avg_pct_nodes_queried,indices_built,indices_disseminated,"
    "indices_suppressed,base_owned_fraction,root_sent,root_received,avg_node_sent,"
    "max_node_sent,avg_node_lifetime_days,root_lifetime_days\n"
    "smoke_tiny,scoop,0,0,0,0,5,5,32,10,2,0,1,0,0.6,0,0,0,0,0,0,0,6,5,0,1,0,0,0,0,"
    "18,12,14,14,23287.875400551453,17907.283250243538\n"
    "smoke_tiny,scoop,1,0,1,5,5,6,39,17,1,0,1,1,1,1,0,0,0,0,0,0,6,5,0,1,1,1,0,"
    "0.3333333333333333,17,17,22,22,8937.508937508937,9237.090242676833\n"
    "smoke_tiny,scoop,mean,0,0.5,2.5,5,5.5,35.5,13.5,1.5,0,1,0.5,0.8,0.5,0,0,0,0,0,"
    "0,6,5,0,1,0.5,0.5,0,0.16666666666666666,17.5,14.5,18,18,16112.692169030195,"
    "13572.186746460186\n"
    "smoke_tiny,local,0,0,0,0,5,5,31,10,3,0,1,1,0.4,0,0,0,0,0,0,0,6,5,0,1,0,0,0,0,"
    "16,12,15,15,28839.055001845696,19151.80486609058\n"
    "smoke_tiny,local,1,0,0,0,5,4,33,9,0,0,1,1,0.8,0,0,0,0,0,0,0,6,5,0,1,0,0,0,0,16,"
    "13,17,17,21018.29432337907,17907.283250243538\n"
    "smoke_tiny,local,mean,0,0,0,5,4.5,32,9.5,1.5,0,1,1,0.6000000000000001,0,0,0,0,"
    "0,0,0,6,5,0,1,0,0,0,0,16,12.5,16,16,24928.674662612382,18529.54405816706\n";

constexpr char kGoldenPartitionHealCsv[] =
    "scenario,seed,trial,data,summary,mapping,query,reply,total,total_excl_beacons,"
    "retransmissions,mac_drops,storage_success,owner_hit_rate,query_success,"
    "summary_delivery,readings_lost,readings_orphaned,readings_rehomed,queries_reissued,"
    "parent_losses,send_retries,readings_produced,queries_issued,tuples_returned,"
    "avg_pct_nodes_queried,indices_built,indices_disseminated,indices_suppressed,"
    "base_owned_fraction,root_sent,root_received,avg_node_sent,max_node_sent,"
    "avg_node_lifetime_days,root_lifetime_days\n"
    "partition_heal,1,0,142560,19247,5790,1993,5039,185905,174629,102958,9091,"
    "1.5946774193548388,0.6416815179788238,0.6721991701244814,1.2057074910820451,0,645,"
    "628,67,0,3586,6200,99,342,0.07852720755946584,13,12,1,0.10655737704918032,471,5078,"
    "2990.8709677419356,17482,809.4514608190159,318.6062805301282\n"
    "partition_heal,1,mean,142560,19247,5790,1993,5039,185905,174629,102958,9091,"
    "1.5946774193548388,0.6416815179788238,0.6721991701244814,1.2057074910820451,0,645,"
    "628,67,0,3586,6200,99,342,0.07852720755946584,13,12,1,0.10655737704918032,471,5078,"
    "2990.8709677419356,17482,809.4514608190159,318.6062805301282\n"
    "partition_heal,2,0,93687,13510,3087,1995,4704,128270,116983,66850,6069,"
    "1.3093548387096774,0.6448670178594372,0.7814569536423841,1.0355871886120998,0,786,"
    "785,57,0,2882,6200,99,365,0.07380254154447723,13,12,1,0.12658227848101267,406,4260,"
    "2062.3225806451615,19883,1195.748375247683,419.39913591699303\n"
    "partition_heal,2,mean,93687,13510,3087,1995,4704,128270,116983,66850,6069,"
    "1.3093548387096774,0.6448670178594372,0.7814569536423841,1.0355871886120998,0,786,"
    "785,57,0,2882,6200,99,365,0.07380254154447723,13,12,1,0.12658227848101267,406,4260,"
    "2062.3225806451615,19883,1195.748375247683,419.39913591699303\n"
    "partition_heal,3,0,71812,16281,5838,1751,5568,112570,101250,59647,6270,"
    "1.4866129032258064,0.7319144118645987,0.7007575757575758,1.1482799525504153,0,1009,"
    "1008,70,0,3057,6200,99,318,0.08602150537634431,13,12,1,0.049586776859504134,431,"
    "4283,1808.6935483870968,9056,843.2815397373344,372.3589325631163\n"
    "partition_heal,3,mean,71812,16281,5838,1751,5568,112570,101250,59647,6270,"
    "1.4866129032258064,0.7319144118645987,0.7007575757575758,1.1482799525504153,0,1009,"
    "1008,70,0,3057,6200,99,318,0.08602150537634431,13,12,1,0.049586776859504134,431,"
    "4283,1808.6935483870968,9056,843.2815397373344,372.3589325631163\n";

TEST(CampaignGoldenTest, SmokeTinyCsvIsByteIdentical) {
  Result<Scenario> scenario = LoadRegisteredScenario("smoke_tiny");
  ASSERT_TRUE(scenario.ok()) << scenario.status().message();
  CampaignOptions options;
  options.threads = 1;
  Result<CampaignResult> result = RunCampaign(scenario.value(), options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(CampaignCsv(result.value()), kGoldenSmokeTinyCsv);
}

// partition_heal severs and heals links mid-run, so the basestation's
// xmits graph loses and regains edges between remaps: the richest
// estimator traffic among the registered scenarios.
TEST(CampaignGoldenTest, PartitionHealCsvIsByteIdentical) {
  Result<Scenario> scenario = LoadRegisteredScenario("partition_heal");
  ASSERT_TRUE(scenario.ok()) << scenario.status().message();
  CampaignOptions options;
  options.threads = 1;
  Result<CampaignResult> result = RunCampaign(scenario.value(), options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(CampaignCsv(result.value()), kGoldenPartitionHealCsv);
}

}  // namespace
}  // namespace scoop::scenario
