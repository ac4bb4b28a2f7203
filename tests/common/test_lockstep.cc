/**
 * @file
 * Lockstep<Worker>: one mutation reaches every worker, worker 0's
 * result comes back, and a follower whose result differs panics with
 * the op name and its own index. A lead-only group builds worker 0
 * alone and lets it stand for every rank.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/lockstep.hh"
#include "test_util.hh"

namespace vattn
{
namespace
{

/** The panic message of @p fn, or "" if it did not panic. */
template <typename Fn>
std::string
panicMessage(Fn &&fn)
{
    test::ScopedThrowErrors guard;
    try {
        fn();
    } catch (const SimError &error) {
        return error.message;
    }
    return "";
}

/** A worker built in place: its rank and a value ops change. */
struct Counter
{
    Counter(int index, int start) : rank(index), value(start) {}

    int rank;
    int value;
};

/** A fully replicated group whose worker w holds @p values[w]. */
Lockstep<Counter>
groupOf(const std::vector<int> &values)
{
    Lockstep<Counter> group(std::in_place, Replication::kFull,
                            static_cast<int>(values.size()), 0);
    for (int w = 0; w < group.size(); ++w) {
        group.worker(w).value = values[static_cast<std::size_t>(w)];
    }
    return group;
}

TEST(Lockstep, AppliesToEveryWorkerAndReturnsTheLeadResult)
{
    auto workers = groupOf({5, 5, 5});
    ASSERT_EQ(workers.size(), 3);
    const int result = workers.apply(
        "add", [](Counter &counter) { return counter.value += 2; });
    EXPECT_EQ(result, 7);
    for (int w = 0; w < workers.size(); ++w) {
        EXPECT_EQ(workers.worker(w).value, 7);
    }
    EXPECT_EQ(workers.lead().value, 7);
}

TEST(Lockstep, VoidOpsRunOnEveryWorker)
{
    auto workers = groupOf({0, 1});
    workers.apply("bump", [](Counter &counter) { ++counter.value; });
    EXPECT_EQ(workers.worker(0).value, 1);
    EXPECT_EQ(workers.worker(1).value, 2);
}

TEST(Lockstep, DivergencePanicsNamingTheOpAndTheWorker)
{
    auto workers = groupOf({1, 1, 2});
    const std::string message = panicMessage([&] {
        workers.apply("readValue",
                      [](Counter &counter) { return counter.value; });
    });
    EXPECT_NE(message.find("diverged in readValue"), std::string::npos)
        << message;
    EXPECT_NE(message.find("worker 2"), std::string::npos) << message;
    // Agreeing followers before the diverging one are not blamed.
    EXPECT_EQ(message.find("worker 1"), std::string::npos) << message;
}

TEST(Lockstep, ForEachFollowerPairsEveryFollowerWithTheLead)
{
    const auto workers = groupOf({3, 4, 5});
    std::vector<int> seen;
    workers.forEachFollower([&](std::size_t w, const Counter &follower,
                                const Counter &lead) {
        EXPECT_EQ(lead.value, 3);
        EXPECT_EQ(follower.value, 3 + static_cast<int>(w));
        seen.push_back(follower.value);
    });
    EXPECT_EQ(seen, (std::vector<int>{4, 5}));
}

TEST(Lockstep, RejectsEmptyGroupsAndBadIndices)
{
    EXPECT_NE(panicMessage([] { groupOf({}); }), "");
    auto workers = groupOf({1});
    EXPECT_NE(panicMessage([&] { workers.worker(1); }).find(
                  "bad worker index 1"),
              std::string::npos);
}

TEST(Lockstep, LeadOnlyGroupBuildsWorkerZeroForEveryRank)
{
    Lockstep<Counter> group(std::in_place, Replication::kLeadOnly, 3, 5);
    EXPECT_EQ(group.size(), 3);
    EXPECT_EQ(group.replication(), Replication::kLeadOnly);
    // The op runs once, on the lead.
    int calls = 0;
    const int result = group.apply("add", [&](Counter &counter) {
        ++calls;
        return counter.value += 2;
    });
    EXPECT_EQ(result, 7);
    EXPECT_EQ(calls, 1);
    int followers = 0;
    group.forEachFollower(
        [&](std::size_t, const Counter &, const Counter &) { ++followers; });
    EXPECT_EQ(followers, 0);
    // Every rank reads the lead.
    for (int w = 0; w < group.size(); ++w) {
        EXPECT_EQ(&group.forRank(w), &group.lead());
    }
    EXPECT_EQ(group.worker(0).rank, 0);

    const std::string message = panicMessage([&] { group.worker(1); });
    EXPECT_NE(message.find("lead-only mode"), std::string::npos)
        << message;
    EXPECT_NE(message.find("worker 1"), std::string::npos) << message;
    EXPECT_NE(panicMessage([&] { group.forRank(3); }).find(
                  "bad worker index 3"),
              std::string::npos);
}

TEST(Lockstep, FullInPlaceGroupBuildsAndAnswersEveryRank)
{
    Lockstep<Counter> group(std::in_place, Replication::kFull, 3, 5);
    EXPECT_EQ(group.replication(), Replication::kFull);
    int calls = 0;
    group.apply("bump", [&](Counter &counter) {
        ++calls;
        ++counter.value;
    });
    EXPECT_EQ(calls, 3);
    for (int w = 0; w < group.size(); ++w) {
        EXPECT_EQ(group.forRank(w).rank, w);
        EXPECT_EQ(group.worker(w).value, 6);
    }
}

} // namespace
} // namespace vattn
