/**
 * @file
 * Lockstep<Worker>: one mutation reaches every worker, worker 0's
 * result comes back, and a follower whose result differs panics with
 * the op name and its own index.
 */

#include <gtest/gtest.h>

#include <string>
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

TEST(Lockstep, AppliesToEveryWorkerAndReturnsTheLeadResult)
{
    Lockstep<int> workers(std::vector<int>{5, 5, 5});
    ASSERT_EQ(workers.size(), 3);
    const int result =
        workers.apply("add", [](int &value) { return value += 2; });
    EXPECT_EQ(result, 7);
    for (int w = 0; w < workers.size(); ++w) {
        EXPECT_EQ(workers.worker(w), 7);
    }
    EXPECT_EQ(workers.lead(), 7);
}

TEST(Lockstep, VoidOpsRunOnEveryWorker)
{
    Lockstep<int> workers(std::vector<int>{0, 1});
    workers.apply("bump", [](int &value) { ++value; });
    EXPECT_EQ(workers.worker(0), 1);
    EXPECT_EQ(workers.worker(1), 2);
}

TEST(Lockstep, DivergencePanicsNamingTheOpAndTheWorker)
{
    Lockstep<int> workers(std::vector<int>{1, 1, 2});
    const std::string message = panicMessage([&] {
        workers.apply("readValue", [](int &value) { return value; });
    });
    EXPECT_NE(message.find("diverged in readValue"), std::string::npos)
        << message;
    EXPECT_NE(message.find("worker 2"), std::string::npos) << message;
    // Agreeing followers before the diverging one are not blamed.
    EXPECT_EQ(message.find("worker 1"), std::string::npos) << message;
}

TEST(Lockstep, ForEachFollowerPairsEveryFollowerWithTheLead)
{
    const Lockstep<int> workers(std::vector<int>{3, 4, 5});
    std::vector<int> seen;
    workers.forEachFollower(
        [&](std::size_t w, const int &follower, const int &lead) {
            EXPECT_EQ(lead, 3);
            EXPECT_EQ(follower, 3 + static_cast<int>(w));
            seen.push_back(follower);
        });
    EXPECT_EQ(seen, (std::vector<int>{4, 5}));
}

TEST(Lockstep, RejectsEmptyGroupsAndBadIndices)
{
    EXPECT_NE(panicMessage([] { Lockstep<int> none(std::vector<int>{}); }),
              "");
    Lockstep<int> workers(std::vector<int>{1});
    EXPECT_NE(panicMessage([&] { workers.worker(1); }).find(
                  "bad worker index 1"),
              std::string::npos);
}

} // namespace
} // namespace vattn
