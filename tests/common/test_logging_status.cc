#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/status.hh"
#include "common/types.hh"
#include "test_util.hh"

namespace vattn
{
namespace
{

TEST(Logging, PanicThrowsInTestMode)
{
    test::ScopedThrowErrors guard;
    EXPECT_THROW(panic("boom ", 42), SimError);
}

TEST(Logging, FatalThrowsInTestMode)
{
    test::ScopedThrowErrors guard;
    EXPECT_THROW(fatal("bad config: ", "x"), SimError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    test::ScopedThrowErrors guard;
    EXPECT_NO_THROW(panic_if(false, "should not fire"));
    EXPECT_THROW(panic_if(true, "fires"), SimError);
}

TEST(Logging, MessageConcatenatesStreamables)
{
    test::ScopedThrowErrors guard;
    try {
        panic("value=", 7, " name=", "kv", " flag=", true);
        FAIL() << "panic did not throw";
    } catch (const SimError &error) {
        EXPECT_EQ(error.message, "value=7 name=kv flag=1");
    }
}

TEST(Status, DefaultIsOk)
{
    Status status;
    EXPECT_TRUE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::kOk);
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    Status status = errorStatus(ErrorCode::kOutOfMemory, "pool empty");
    EXPECT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::kOutOfMemory);
    EXPECT_EQ(status.message(), "pool empty");
}

TEST(Status, ExpectOkPanicsOnError)
{
    test::ScopedThrowErrors guard;
    Status bad = errorStatus(ErrorCode::kNotFound, "nope");
    EXPECT_THROW(bad.expectOk("ctx"), SimError);
    EXPECT_NO_THROW(Status::ok().expectOk("ctx"));
}

TEST(Result, HoldsValue)
{
    Result<int> result(42);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), 42);
    EXPECT_EQ(result.code(), ErrorCode::kOk);
}

TEST(Result, HoldsError)
{
    Result<int> result(ErrorCode::kInvalidArgument, "bad");
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(result.valueOr(-1), -1);
}

TEST(Result, ValuePanicsOnError)
{
    test::ScopedThrowErrors guard;
    Result<int> result(ErrorCode::kOutOfMemory);
    EXPECT_THROW(result.value(), SimError);
}

TEST(Result, ErrorCtorRejectsOkStatus)
{
    test::ScopedThrowErrors guard;
    EXPECT_THROW(Result<int>(Status::ok()), SimError);
}

TEST(ErrorCode, ToStringCoversAll)
{
    EXPECT_STREQ(toString(ErrorCode::kOk), "OK");
    EXPECT_STREQ(toString(ErrorCode::kOutOfMemory), "OUT_OF_MEMORY");
    EXPECT_STREQ(toString(ErrorCode::kInvalidArgument),
                 "INVALID_ARGUMENT");
    EXPECT_STREQ(toString(ErrorCode::kNotFound), "NOT_FOUND");
    EXPECT_STREQ(toString(ErrorCode::kAlreadyExists), "ALREADY_EXISTS");
    EXPECT_STREQ(toString(ErrorCode::kFailedPrecondition),
                 "FAILED_PRECONDITION");
}

TEST(Units, PageSizesAndGroups)
{
    EXPECT_EQ(bytes(PageSize::k4KB), 4096u);
    EXPECT_EQ(bytes(PageSize::k64KB), 65536u);
    EXPECT_EQ(bytes(PageSize::k2MB), 2u * 1024 * 1024);
    EXPECT_EQ(bytes(PageGroup::k128KB), 128u * 1024);
    EXPECT_TRUE(isCudaNative(PageGroup::k2MB));
    EXPECT_FALSE(isCudaNative(PageGroup::k64KB));
    EXPECT_STREQ(toString(PageGroup::k256KB), "256KB");
    EXPECT_STREQ(toString(PageSize::k4KB), "4KB");
    EXPECT_STREQ(toString(PageSize::k64KB), "64KB");
    EXPECT_STREQ(toString(PageSize::k2MB), "2MB");
}

TEST(Units, MathHelpers)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(12));
    EXPECT_EQ(roundUp(1, 4096), 4096u);
    EXPECT_EQ(roundUp(4096, 4096), 4096u);
    EXPECT_EQ(roundDown(8191, 4096), 4096u);
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(2 * MiB), 21u);
}

} // namespace
} // namespace vattn
