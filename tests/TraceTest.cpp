//===- tests/TraceTest.cpp - Trace log and wiring --------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/DynamicReplicator.h"
#include "grid/Testbed.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

using namespace dgsim;
using namespace dgsim::units;

TEST(TraceLog, CategoriesStartDisabled) {
  TraceLog Log;
  for (unsigned I = 0; I < NumTraceCategories; ++I)
    EXPECT_FALSE(Log.enabled(static_cast<TraceCategory>(I)));
  TraceLog::recordf(&Log, 1.0, TraceCategory::Transfer, "dropped");
  EXPECT_EQ(Log.size(), 0u);
}

TEST(TraceLog, EnableDisable) {
  TraceLog Log;
  Log.enable(TraceCategory::Selection);
  EXPECT_TRUE(Log.enabled(TraceCategory::Selection));
  EXPECT_FALSE(Log.enabled(TraceCategory::Transfer));
  TraceLog::recordf(&Log, 1.0, TraceCategory::Selection, "kept");
  TraceLog::recordf(&Log, 2.0, TraceCategory::Transfer, "dropped");
  EXPECT_EQ(Log.size(), 1u);
  Log.disable(TraceCategory::Selection);
  TraceLog::recordf(&Log, 3.0, TraceCategory::Selection, "dropped");
  EXPECT_EQ(Log.size(), 1u);
  EXPECT_EQ(Log.events()[0].Message, "kept");
}

TEST(TraceLog, EnableAllAndByCategory) {
  TraceLog Log;
  Log.enableAll();
  TraceLog::recordf(&Log, 1.0, TraceCategory::Transfer, "t1");
  TraceLog::recordf(&Log, 2.0, TraceCategory::Network, "n1");
  TraceLog::recordf(&Log, 3.0, TraceCategory::Transfer, "t2");
  EXPECT_EQ(Log.size(), 3u);
  auto Transfers = Log.byCategory(TraceCategory::Transfer);
  ASSERT_EQ(Transfers.size(), 2u);
  EXPECT_EQ(Transfers[1]->Message, "t2");
  Log.clear();
  EXPECT_EQ(Log.size(), 0u);
}

TEST(TraceLog, FormattedDump) {
  TraceLog Log;
  Log.enableAll();
  TraceLog::recordf(&Log, 12.5, TraceCategory::Replication, "copy live");
  std::string S = Log.str();
  EXPECT_NE(S.find("12.500"), std::string::npos);
  EXPECT_NE(S.find("replication"), std::string::npos);
  EXPECT_NE(S.find("copy live"), std::string::npos);
}

TEST(TraceLog, CategoryNames) {
  EXPECT_STREQ(traceCategoryName(TraceCategory::Transfer), "transfer");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Selection), "selection");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Replication),
               "replication");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Network), "network");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Monitor), "monitor");
}

TEST(TraceWiring, TransferManagerRecordsLifecycle) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  T.grid().trace().enable(TraceCategory::Transfer);
  TransferSpec Spec;
  Spec.Source = &T.alpha(4);
  Spec.Destination = &T.alpha(1);
  Spec.FileBytes = megabytes(64);
  Spec.Streams = 4;
  T.grid().transfers().submit(Spec, nullptr);
  T.sim().run();
  auto Events = T.grid().trace().byCategory(TraceCategory::Transfer);
  ASSERT_EQ(Events.size(), 2u); // submit + done
  EXPECT_NE(Events[0]->Message.find("submit"), std::string::npos);
  EXPECT_NE(Events[0]->Message.find("alpha4"), std::string::npos);
  EXPECT_NE(Events[1]->Message.find("done"), std::string::npos);
}

TEST(TraceWiring, SelectorRecordsDecisions) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  T.publishFileA();
  T.grid().trace().enable(TraceCategory::Selection);
  CostModelPolicy Policy;
  ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), Policy);
  Sel.setTrace(&T.grid().trace());
  T.sim().runUntil(30.0);
  Sel.select(T.alpha(1).node(), PaperTestbed::FileA);
  // Add a local copy: the next selection logs a local hit.
  T.grid().catalog().addReplica(PaperTestbed::FileA, T.alpha(1));
  Sel.select(T.alpha(1).node(), PaperTestbed::FileA);
  auto Events = T.grid().trace().byCategory(TraceCategory::Selection);
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_NE(Events[0]->Message.find("chose alpha4"), std::string::npos);
  EXPECT_NE(Events[1]->Message.find("local hit"), std::string::npos);
}

TEST(TraceWiring, ReplicatorRecordsTriggers) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  T.grid().catalog().registerFile("hot", megabytes(64));
  T.grid().catalog().addReplica("hot", T.hit(0));
  T.grid().trace().enable(TraceCategory::Replication);
  CostModelPolicy Policy;
  ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), Policy);
  ReplicaManager Mgr(T.grid().catalog(), Sel, T.grid().transfers());
  DynamicReplicationConfig C;
  C.AccessThreshold = 1;
  DynamicReplicator Rep(T.grid(), Mgr, C);
  Rep.setTrace(&T.grid().trace());
  JobRecord R;
  R.Client = &T.alpha(2);
  R.Fetch.Lfn = "hot";
  R.Fetch.FinalSource = &T.hit(0);
  Rep.onJob(R);
  T.sim().run();
  auto Events = T.grid().trace().byCategory(TraceCategory::Replication);
  ASSERT_EQ(Events.size(), 2u); // trigger + live
  EXPECT_NE(Events[0]->Message.find("replicating"), std::string::npos);
  EXPECT_NE(Events[1]->Message.find("replica live"), std::string::npos);
}
