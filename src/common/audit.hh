/**
 * @file
 * Cross-layer invariant auditing. Every layer that owns accountable
 * state (driver ledgers, page pool, KV allocator, block manager,
 * scheduler queues) implements an `auditInto(AuditReport &)` that
 * re-derives its invariants from first principles and records every
 * violation with an actionable message. Tests assert a clean audit
 * through vattn::test::auditClean, which prints the report on failure.
 *
 * Audit functions are always compiled (tests inject corruption and
 * assert on the produced report); only the engine's per-iteration
 * whole-stack audit hook is gated behind the VATTN_AUDIT build option,
 * so Release serving runs pay nothing.
 */

#ifndef VATTN_COMMON_AUDIT_HH
#define VATTN_COMMON_AUDIT_HH

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace vattn::audit
{

/** Accumulates invariant violations across the layers of one audit
 *  sweep. Empty report = every audited invariant holds. */
class AuditReport
{
  public:
    bool ok() const { return violations_.empty(); }
    std::size_t numViolations() const { return violations_.size(); }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    /** Record one violation; arguments are streamed like logging. By
     *  convention the first part names the layer ("page_pool: ..."). */
    template <typename... Args>
    void
    fail(Args &&...parts)
    {
        std::ostringstream oss;
        (oss << ... << std::forward<Args>(parts));
        violations_.push_back(oss.str());
    }

    /** Record a violation when @p holds is false; returns @p holds so
     *  callers can skip checks that depend on this one. */
    template <typename... Args>
    bool
    check(bool holds, Args &&...parts)
    {
        if (!holds) {
            fail(std::forward<Args>(parts)...);
        }
        return holds;
    }

    /** Does any violation message contain @p needle? (test helper) */
    bool contains(const std::string &needle) const;

    /** Human-readable multi-line summary of every violation. */
    std::string toString() const;

  private:
    std::vector<std::string> violations_;
};

} // namespace vattn::audit

#endif // VATTN_COMMON_AUDIT_HH
