/**
 * @file
 * Runtime-dispatched SIMD clones for the MVM inner loops.
 *
 * On GCC/ELF x86-64 a kernel tagged PRIME_MVM_INT_CLONES or
 * PRIME_MVM_FP_CLONES is compiled once per listed ISA and an ifunc
 * resolver picks the widest one the CPU supports; elsewhere the plain
 * -O3 loop is used.  Integer kernels are exact under any ISA.  The
 * floating-point set deliberately stops at "avx2" (no FMA target):
 * mul-then-add per element is identically rounded on every clone,
 * keeping analog results bit-exact across machines.
 *
 * Disabled under sanitizers: target_clones emits GNU ifunc resolvers,
 * which the dynamic linker runs during relocation -- before the
 * ASan/TSan runtime has initialized -- crashing every binary that links
 * such a TU.  The PRIME_SANITIZE builds take the plain loop.
 */

#ifndef PRIME_RERAM_SIMD_CLONES_HH
#define PRIME_RERAM_SIMD_CLONES_HH

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PRIME_MVM_NO_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PRIME_MVM_NO_CLONES 1
#endif
#endif

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    defined(__ELF__) && !defined(PRIME_MVM_NO_CLONES)
#define PRIME_MVM_INT_CLONES \
    __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#define PRIME_MVM_FP_CLONES \
    __attribute__((target_clones("default", "avx2")))
#else
#define PRIME_MVM_INT_CLONES
#define PRIME_MVM_FP_CLONES
#endif

#endif // PRIME_RERAM_SIMD_CLONES_HH
