/**
 * @file
 * Shared helpers for the vattn test suite.
 */

#ifndef VATTN_TESTS_TEST_UTIL_HH
#define VATTN_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include "common/audit.hh"
#include "common/logging.hh"

namespace vattn::test
{

/** Make panic()/fatal() throw SimError within a scope. */
class ScopedThrowErrors
{
  public:
    ScopedThrowErrors() { log_detail::setThrowOnError(true); }
    ~ScopedThrowErrors() { log_detail::setThrowOnError(false); }
};

/** Success iff @p audited's auditInto() records no violation; a
 *  failure carries the report, so it prints every violation. */
template <typename Audited>
::testing::AssertionResult
auditClean(const Audited &audited)
{
    audit::AuditReport report;
    audited.auditInto(report);
    if (report.ok()) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << report.toString();
}

} // namespace vattn::test

#endif // VATTN_TESTS_TEST_UTIL_HH
