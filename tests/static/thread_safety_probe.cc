// Probe for Clang's -Wthread-safety over the annotated wrappers in
// common/thread_annotations.h.  Compiled twice by CTest with
// -fsyntax-only -Werror=thread-safety (Clang builds only):
//
//   * as is: the guarded accesses below hold the right locks, so the
//     translation unit must be accepted -- proving the annotations
//     attach to the wrappers at all;
//   * with -DPERIODK_SEED_TS_VIOLATION: Touch() reads the guarded
//     field without the lock, and the test asserts the compiler
//     REJECTS the unit (WILL_FAIL).  If the analysis were silently
//     disabled -- a macro gate rotting, a flag falling out of the CI
//     job -- the seeded violation would compile and the test would
//     fail, which is the point.
#include <cstdint>

#include "common/thread_annotations.h"

namespace periodk {
namespace {

class Counter {
 public:
  void Increment() {
    MutexLock lock(mu_);
    value_ += 1;
  }

  int64_t Read() const {
    MutexLock lock(mu_);
    return value_;
  }

  int64_t Touch() const {
#ifdef PERIODK_SEED_TS_VIOLATION
    return value_;  // unguarded read: -Wthread-safety must reject this
#else
    MutexLock lock(mu_);
    return value_;
#endif
  }

 private:
  mutable Mutex mu_;
  int64_t value_ PERIODK_GUARDED_BY(mu_) = 0;
};

class SharedCounter {
 public:
  void Set(int64_t v) {
    SharedMutexLock lock(mu_);
    value_ = v;
  }

  int64_t Get() const {
    SharedReaderLock lock(mu_);
    return value_;
  }

 private:
  mutable SharedMutex mu_;
  int64_t value_ PERIODK_GUARDED_BY(mu_) = 0;
};

// Model of the catalog's index-slot publish protocol: the slot is
// guarded by the catalog's SharedMutex, and a reader that lazily built
// an index off its pinned snapshot (EnsureTimelineIndex) may only
// publish it back while holding that lock exclusively (double-checked
// against the generation tag).  With
// -DPERIODK_SEED_TS_COMPACTION_VIOLATION the publish skips the lock --
// exactly the race a miswritten publish would introduce -- and
// -Wthread-safety must reject the unit (WILL_FAIL).
class IndexSlot {
 public:
  void ReaderConsult(int64_t* out) const {
    SharedReaderLock lock(catalog_mu_);
    *out = slot_ + generation_;
  }

  void PublishBuilt(int64_t built_for_generation, int64_t index) {
#ifdef PERIODK_SEED_TS_COMPACTION_VIOLATION
    // Unlocked publish: races every reader and writer on the slot.
    if (generation_ == built_for_generation) slot_ = index;
#else
    SharedMutexLock lock(catalog_mu_);
    if (generation_ == built_for_generation) slot_ = index;
#endif
  }

  void WriterAppend(int64_t delta_index) {
    SharedMutexLock lock(catalog_mu_);
    slot_ = delta_index;
    generation_ += 1;
  }

 private:
  mutable SharedMutex catalog_mu_;
  int64_t slot_ PERIODK_GUARDED_BY(catalog_mu_) = 0;
  int64_t generation_ PERIODK_GUARDED_BY(catalog_mu_) = 0;
};

// Odr-use the probes so the definitions are fully analyzed.
int64_t Drive() {
  Counter c;
  c.Increment();
  SharedCounter s;
  s.Set(c.Read());
  IndexSlot slot;
  slot.WriterAppend(1);
  slot.PublishBuilt(1, 2);
  int64_t consulted = 0;
  slot.ReaderConsult(&consulted);
  return s.Get() + c.Touch() + consulted;
}

int64_t sink = Drive();

}  // namespace
}  // namespace periodk
