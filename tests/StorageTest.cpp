//===- tests/StorageTest.cpp - Storage elements and eviction --------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/DynamicReplicator.h"
#include "grid/Testbed.h"
#include "replica/StorageElement.h"

#include <gtest/gtest.h>

using namespace dgsim;
using namespace dgsim::units;

namespace {

HostConfig plainHost(const std::string &Name) {
  HostConfig H;
  H.Name = Name;
  H.Cpu.Volatility = 0.0;
  H.DiskCfg.Background.Volatility = 0.0;
  return H;
}

} // namespace

TEST(StorageElement, CapacityAccounting) {
  Simulator Sim(1);
  Host H(Sim, plainHost("h"), 0);
  StorageElement SE(H, gigabytes(1));
  EXPECT_DOUBLE_EQ(SE.freeBytes(), gigabytes(1));
  SE.add("a", megabytes(600), 0.0);
  EXPECT_TRUE(SE.contains("a"));
  EXPECT_DOUBLE_EQ(SE.usedBytes(), megabytes(600));
  EXPECT_DOUBLE_EQ(SE.freeBytes(), gigabytes(1) - megabytes(600));
  EXPECT_TRUE(SE.remove("a"));
  EXPECT_FALSE(SE.remove("a"));
  EXPECT_DOUBLE_EQ(SE.usedBytes(), 0.0);
}

TEST(StorageElement, LruVictimIsOldestAccess) {
  Simulator Sim(2);
  Host H(Sim, plainHost("h"), 0);
  StorageElement SE(H, gigabytes(10));
  SE.add("old", megabytes(100), 1.0);
  SE.add("mid", megabytes(100), 2.0);
  SE.add("new", megabytes(100), 3.0);
  SE.touch("old", 10.0); // "old" becomes the most recent.
  EXPECT_EQ(SE.pickVictim(EvictionPolicy::Lru, nullptr), "mid");
}

TEST(StorageElement, LfuVictimIsColdestWithLruTieBreak) {
  Simulator Sim(3);
  Host H(Sim, plainHost("h"), 0);
  StorageElement SE(H, gigabytes(10));
  SE.add("hot", megabytes(100), 1.0);
  SE.add("warm", megabytes(100), 2.0);
  SE.add("cold", megabytes(100), 3.0);
  for (int I = 0; I < 5; ++I)
    SE.touch("hot", 4.0 + I);
  SE.touch("warm", 10.0);
  // All start at count 1 from add(); hot=6, warm=2, cold=1.
  EXPECT_EQ(SE.pickVictim(EvictionPolicy::Lfu, nullptr), "cold");
  // Tie-break on recency: two count-1 files -> older access loses.
  SE.add("cold2", megabytes(100), 0.5);
  EXPECT_EQ(SE.pickVictim(EvictionPolicy::Lfu, nullptr), "cold2");
}

TEST(StorageElement, PinnedFilesAreNeverVictims) {
  Simulator Sim(4);
  Host H(Sim, plainHost("h"), 0);
  StorageElement SE(H, gigabytes(10));
  SE.add("a", megabytes(100), 1.0);
  SE.add("b", megabytes(100), 2.0);
  SE.setPinned("a", true);
  EXPECT_TRUE(SE.pinned("a"));
  EXPECT_EQ(SE.pickVictim(EvictionPolicy::Lru, nullptr), "b");
  SE.setPinned("b", true);
  EXPECT_EQ(SE.pickVictim(EvictionPolicy::Lru, nullptr), "");
}

TEST(StorageElement, NonePolicyNeverEvicts) {
  Simulator Sim(5);
  Host H(Sim, plainHost("h"), 0);
  StorageElement SE(H, gigabytes(1));
  SE.add("a", megabytes(100), 1.0);
  EXPECT_EQ(SE.pickVictim(EvictionPolicy::None, nullptr), "");
}

TEST(StorageElement, FilterRestrictsVictims) {
  Simulator Sim(6);
  Host H(Sim, plainHost("h"), 0);
  StorageElement SE(H, gigabytes(10));
  SE.add("a", megabytes(100), 1.0);
  SE.add("b", megabytes(100), 2.0);
  auto OnlyB = [](const std::string &Lfn) { return Lfn == "b"; };
  EXPECT_EQ(SE.pickVictim(EvictionPolicy::Lru, OnlyB), "b");
}

TEST(StorageManager, EnsureSpaceEvictsAndUnregisters) {
  Simulator Sim(7);
  Host A(Sim, plainHost("a"), 0), B(Sim, plainHost("b"), 1);
  ReplicaCatalog Cat;
  Cat.registerFile("f1", megabytes(400));
  Cat.registerFile("f2", megabytes(400));
  Cat.registerFile("f3", megabytes(400));
  // Every file also has a copy at B, so eviction at A is always legal.
  for (const char *F : {"f1", "f2", "f3"})
    Cat.addReplica(F, B);

  StorageManager SM(Cat, EvictionPolicy::Lru);
  SM.attachStore(A, gigabytes(1)); // Fits two 400 MB files.
  ASSERT_TRUE(SM.ensureSpace(A, megabytes(400), 1.0));
  SM.recordPlacement("f1", A, 1.0);
  ASSERT_TRUE(SM.ensureSpace(A, megabytes(400), 2.0));
  SM.recordPlacement("f2", A, 2.0);
  EXPECT_EQ(Cat.locateRef("f1").size(), 2u);

  // The third placement evicts the LRU file (f1).
  ASSERT_TRUE(SM.ensureSpace(A, megabytes(400), 3.0));
  SM.recordPlacement("f3", A, 3.0);
  EXPECT_EQ(SM.evictions(), 1u);
  EXPECT_FALSE(SM.storeOf(A)->contains("f1"));
  EXPECT_EQ(Cat.replicaAt("f1", A.node()), nullptr); // Unregistered.
  EXPECT_EQ(Cat.locateRef("f1").size(), 1u);            // B still has it.
}

TEST(StorageManager, LastCopyIsNeverEvicted) {
  Simulator Sim(8);
  Host A(Sim, plainHost("a"), 0);
  ReplicaCatalog Cat;
  Cat.registerFile("unique", megabytes(800));
  Cat.registerFile("incoming", megabytes(800));
  StorageManager SM(Cat, EvictionPolicy::Lru);
  SM.attachStore(A, gigabytes(1));
  ASSERT_TRUE(SM.ensureSpace(A, megabytes(800), 1.0));
  SM.recordPlacement("unique", A, 1.0); // Only copy anywhere.
  // No space and nothing evictable: refuse.
  EXPECT_FALSE(SM.ensureSpace(A, megabytes(800), 2.0));
  EXPECT_TRUE(SM.storeOf(A)->contains("unique"));
  EXPECT_EQ(SM.evictions(), 0u);
}

TEST(StorageManager, OversizedFileIsRefusedOutright) {
  Simulator Sim(9);
  Host A(Sim, plainHost("a"), 0);
  ReplicaCatalog Cat;
  StorageManager SM(Cat, EvictionPolicy::Lru);
  SM.attachStore(A, megabytes(100));
  EXPECT_FALSE(SM.ensureSpace(A, megabytes(200), 1.0));
}

TEST(StorageManager, NonePolicyRefusesWhenFull) {
  Simulator Sim(10);
  Host A(Sim, plainHost("a"), 0), B(Sim, plainHost("b"), 1);
  ReplicaCatalog Cat;
  Cat.registerFile("f1", megabytes(700));
  Cat.registerFile("f2", megabytes(700));
  Cat.addReplica("f1", B);
  Cat.addReplica("f2", B);
  StorageManager SM(Cat, EvictionPolicy::None);
  SM.attachStore(A, gigabytes(1));
  ASSERT_TRUE(SM.ensureSpace(A, megabytes(700), 1.0));
  SM.recordPlacement("f1", A, 1.0);
  EXPECT_FALSE(SM.ensureSpace(A, megabytes(700), 2.0));
}

TEST(StorageManager, HotnessAdmissionProtectsHotterFiles) {
  Simulator Sim(11);
  Host A(Sim, plainHost("a"), 0), B(Sim, plainHost("b"), 1);
  ReplicaCatalog Cat;
  Cat.registerFile("resident", megabytes(800));
  Cat.addReplica("resident", B); // Evictable in principle.
  StorageManager SM(Cat, EvictionPolicy::Lru);
  SM.attachStore(A, gigabytes(1));
  SM.recordPlacement("resident", A, 1.0);
  for (int I = 0; I < 4; ++I)
    SM.recordAccess("resident", A, 2.0 + I); // Count: 1 + 4 = 5.

  // A file with 3 recorded accesses may not displace a 5-access one...
  EXPECT_FALSE(SM.ensureSpace(A, megabytes(800), 10.0, 3));
  EXPECT_TRUE(SM.storeOf(A)->contains("resident"));
  // ...equal hotness is not enough either (strictly colder only)...
  EXPECT_FALSE(SM.ensureSpace(A, megabytes(800), 11.0, 5));
  // ...but a genuinely hotter file is admitted.
  EXPECT_TRUE(SM.ensureSpace(A, megabytes(800), 12.0, 6));
  EXPECT_FALSE(SM.storeOf(A)->contains("resident"));
  EXPECT_EQ(SM.evictions(), 1u);
}

TEST(StorageManager, PolicyNames) {
  EXPECT_STREQ(evictionPolicyName(EvictionPolicy::None), "none");
  EXPECT_STREQ(evictionPolicyName(EvictionPolicy::Lru), "lru");
  EXPECT_STREQ(evictionPolicyName(EvictionPolicy::Lfu), "lfu");
}

//===----------------------------------------------------------------------===//
// Replicator integration under constrained storage
//===----------------------------------------------------------------------===//

TEST(StorageIntegration, ReplicatorEvictsColdReplicaForHotFile) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  ReplicaCatalog &Cat = T.grid().catalog();
  Cat.registerFile("cold", megabytes(700));
  Cat.addReplica("cold", T.hit(0));
  Cat.registerFile("hot", megabytes(700));
  Cat.addReplica("hot", T.hit(1));

  CostModelPolicy Policy;
  ReplicaSelector Sel(Cat, T.grid().info(), Policy);
  ReplicaManager Manager(Cat, Sel, T.grid().transfers());
  StorageManager SM(Cat, EvictionPolicy::Lru);
  SM.attachStore(T.alpha(1), gigabytes(1)); // Fits one file.

  DynamicReplicationConfig C;
  C.AccessThreshold = 1;
  C.HotnessAdmission = false; // This test exercises raw LRU mechanics.
  DynamicReplicator Rep(T.grid(), Manager, C);
  Rep.setStorageManager(&SM);
  Rep.setStorageHost("thu", T.alpha(1));

  auto Remote = [&](const char *Lfn, Host &Src) {
    JobRecord R;
    R.Client = &T.alpha(2);
    R.Fetch.Lfn = Lfn;
    R.Fetch.FinalSource = &Src;
    return R;
  };
  // "cold" gets replicated first and fills the store.
  Rep.onJob(Remote("cold", T.hit(0)));
  T.sim().run();
  EXPECT_TRUE(SM.storeOf(T.alpha(1))->contains("cold"));

  // "hot" then evicts it (LRU; "cold" has the older access stamp).
  Rep.onJob(Remote("hot", T.hit(1)));
  T.sim().run();
  EXPECT_TRUE(SM.storeOf(T.alpha(1))->contains("hot"));
  EXPECT_FALSE(SM.storeOf(T.alpha(1))->contains("cold"));
  EXPECT_EQ(SM.evictions(), 1u);
  // Catalog consistency: the evicted replica is gone, origin remains.
  EXPECT_EQ(Cat.locateRef("cold").size(), 1u);
  EXPECT_EQ(Cat.locateRef("hot").size(), 2u);
}

TEST(StorageIntegration, ReplicatorSkipsWhenNothingEvictable) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  ReplicaCatalog &Cat = T.grid().catalog();
  Cat.registerFile("big", megabytes(900));
  Cat.addReplica("big", T.hit(0));

  CostModelPolicy Policy;
  ReplicaSelector Sel(Cat, T.grid().info(), Policy);
  ReplicaManager Manager(Cat, Sel, T.grid().transfers());
  StorageManager SM(Cat, EvictionPolicy::None);
  SM.attachStore(T.alpha(1), megabytes(500)); // Too small.

  DynamicReplicationConfig C;
  C.AccessThreshold = 1;
  DynamicReplicator Rep(T.grid(), Manager, C);
  Rep.setStorageManager(&SM);
  Rep.setStorageHost("thu", T.alpha(1));

  JobRecord R;
  R.Client = &T.alpha(2);
  R.Fetch.Lfn = "big";
  R.Fetch.FinalSource = &T.hit(0);
  Rep.onJob(R);
  EXPECT_EQ(Rep.replicationsStarted(), 0u);
  T.sim().run();
  EXPECT_EQ(Cat.locateRef("big").size(), 1u);
}
