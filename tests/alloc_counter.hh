/**
 * @file
 * Counting global operator new/delete for allocation-regression tests.
 * Replaces every replaceable variant with a malloc-backed shim that
 * bumps one relaxed counter, read through allocCount().
 *
 * The header defines the replacement operators, so include it from
 * exactly one translation unit of a test binary. GCC cannot see the
 * new/free pairing once it inlines the shim into callers; binaries
 * that include it compile with -Wno-mismatched-new-delete.
 */

#ifndef VATTN_TESTS_ALLOC_COUNTER_HH
#define VATTN_TESTS_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdlib>
#include <new>

// ---- Counting operator new/delete ----------------------------------
//
// Every replaceable allocation funnels through malloc with one relaxed
// counter bump; every delete funnels through free (posix_memalign
// memory is free()-compatible), so the pairs stay matched under the
// sanitizers too.

namespace
{

std::atomic<long long> g_allocs{0};

long long
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
countedAllocAligned(std::size_t size, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void *)) {
        alignment = sizeof(void *);
    }
    void *ptr = nullptr;
    if (posix_memalign(&ptr, alignment, size ? size : 1) != 0) {
        return nullptr;
    }
    return ptr;
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *ptr = countedAlloc(size)) {
        return ptr;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *ptr = countedAlloc(size)) {
        return ptr;
    }
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *ptr = countedAllocAligned(size, align)) {
        return ptr;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    if (void *ptr = countedAllocAligned(size, align)) {
        return ptr;
    }
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAllocAligned(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAllocAligned(size, align);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

#endif // VATTN_TESTS_ALLOC_COUNTER_HH
