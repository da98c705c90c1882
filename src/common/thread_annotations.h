// Clang thread-safety (capability) annotation macros.
//
// The concurrency in this tree — the ThreadPool that fans scenarios and
// budget-tree shards out, the TraceRecorder's locked registration path, the
// Standalone() baseline cache — is guarded by a handful of mutexes whose
// locking discipline used to be enforced only by TSan at runtime.  These
// macros attach that discipline to the types themselves so Clang's
// -Wthread-safety analysis proves it at compile time: every access to a
// PAPD_GUARDED_BY member is checked against the set of capabilities
// (mutexes) held at that point in the function, and a violation is a build
// error in the clang CI job (-Wthread-safety -Werror=thread-safety).
//
// Use the papd::Mutex / papd::MutexLock / papd::CondVar wrappers from
// src/common/mutex.h rather than std::mutex — the standard types carry no
// annotations, so the analysis cannot see through them (papd_lint's
// raw-mutex rule enforces this outside src/common).
//
// Under GCC (or any compiler without the attributes) every macro expands to
// nothing; the annotations are zero-cost documentation there.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#ifndef SRC_COMMON_THREAD_ANNOTATIONS_H_
#define SRC_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define PAPD_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PAPD_THREAD_ANNOTATION_(x)  // no-op
#endif

// On a class: instances are a capability (a lock) the analysis tracks.
#define PAPD_CAPABILITY(name) PAPD_THREAD_ANNOTATION_(capability(name))

// On a class: RAII object that acquires a capability in its constructor and
// releases it in its destructor (MutexLock).
#define PAPD_SCOPED_CAPABILITY PAPD_THREAD_ANNOTATION_(scoped_lockable)

// On a data member: reads and writes require holding the given mutex.
#define PAPD_GUARDED_BY(x) PAPD_THREAD_ANNOTATION_(guarded_by(x))

// On a pointer member: the *pointed-to* data is guarded by the given mutex.
#define PAPD_PT_GUARDED_BY(x) PAPD_THREAD_ANNOTATION_(pt_guarded_by(x))

// On a function: the caller must hold the given capabilities (exclusively /
// shared) when calling.
#define PAPD_REQUIRES(...) PAPD_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define PAPD_REQUIRES_SHARED(...) \
  PAPD_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

// On a function: acquires / releases the given capabilities (no argument:
// `this`, for the capability type's own Lock/Unlock).
#define PAPD_ACQUIRE(...) PAPD_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define PAPD_ACQUIRE_SHARED(...) \
  PAPD_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define PAPD_RELEASE(...) PAPD_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define PAPD_RELEASE_SHARED(...) \
  PAPD_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

// On a function: attempts acquisition; the first argument is the return
// value that means success.
#define PAPD_TRY_ACQUIRE(...) PAPD_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// On a function: the caller must NOT hold the given capabilities (deadlock
// prevention for functions that take the lock themselves).
#define PAPD_EXCLUDES(...) PAPD_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// On a function: asserts the capability is held (runtime-checked designs).
#define PAPD_ASSERT_CAPABILITY(x) PAPD_THREAD_ANNOTATION_(assert_capability(x))

// On a function: returns a reference to the given capability.
#define PAPD_RETURN_CAPABILITY(x) PAPD_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch: disables the analysis for one function.  Reserve it for
// code whose safety argument the analysis cannot express (and say why).
#define PAPD_NO_THREAD_SAFETY_ANALYSIS PAPD_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // SRC_COMMON_THREAD_ANNOTATIONS_H_
