// Sorting interval endpoint events by time: the radix sort shared by
// the timeline index build and the split-aggregate sweep.
#ifndef PERIODK_ENGINE_EVENT_SORT_H_
#define PERIODK_ENGINE_EVENT_SORT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "temporal/interval.h"

namespace periodk {

/// The `count` events `for_each` feeds, stably sorted on their `time`
/// (every time within [min_time, max_time]) by an LSD radix sort in
/// O(count) instead of a comparison sort: events of equal time keep
/// the order they were fed in.  The key is unsigned: time - min_time
/// cannot overflow, whatever part of the int64 range the endpoints
/// span.  A digit is at most clamp(bit_width(count), 4, 16) bits wide,
/// so a pass clears and sums no more bucket offsets than about twice
/// the events it moves, and there are as few passes as the span needs;
/// the first pass reads `for_each` itself, so a span within one digit
/// takes one pass and no scratch copy of the events.  `for_each(fn)`
/// must call fn(event) for the same events in the same order each time.
template <typename EventT, typename ForEach>
std::vector<EventT> SortEventsByTime(size_t count, TimePoint min_time,
                                     TimePoint max_time,
                                     const ForEach& for_each) {
  const uint64_t span =
      static_cast<uint64_t>(max_time) - static_cast<uint64_t>(min_time);
  const int bits = std::bit_width(span);
  const int max_width =
      std::clamp(static_cast<int>(std::bit_width(count)), 4, 16);
  const int passes = std::max(1, (bits + max_width - 1) / max_width);
  const int width = std::max(1, (bits + passes - 1) / passes);
  const uint64_t mask = (uint64_t{1} << width) - 1;
  std::vector<EventT> out(count);
  std::vector<EventT> scratch(passes > 1 ? count : 0);
  std::vector<size_t> offsets(size_t{1} << width);
  // Ping-pong so that the last pass writes `out`.
  std::vector<EventT>* src = nullptr;
  std::vector<EventT>* dst = passes % 2 == 1 ? &out : &scratch;
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * width;
    const auto digit = [&](const EventT& event) {
      return static_cast<size_t>(((static_cast<uint64_t>(event.time) -
                                   static_cast<uint64_t>(min_time)) >>
                                  shift) &
                                 mask);
    };
    const auto visit = [&](const auto& fn) {
      if (src == nullptr) {
        for_each(fn);
      } else {
        for (const EventT& event : *src) fn(event);
      }
    };
    std::fill(offsets.begin(), offsets.end(), 0);
    visit([&](const EventT& event) { ++offsets[digit(event)]; });
    size_t next = 0;
    for (size_t& offset : offsets) next += std::exchange(offset, next);
    visit([&](const EventT& event) { (*dst)[offsets[digit(event)]++] = event; });
    src = dst;
    dst = dst == &out ? &scratch : &out;
  }
  return out;
}

}  // namespace periodk

#endif  // PERIODK_ENGINE_EVENT_SORT_H_
