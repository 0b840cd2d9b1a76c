// A LIFO pool of float buffers that recycles vector capacity across
// frames. The executor's depth-first event traversal acquires and
// releases buffers in stack order, so each pool slot quickly converges
// to the largest size used at its depth; after a short warmup,
// acquire() is allocation-free.
//
// The pool stays bounded only if every release follows an acquire:
// then idle_buffers() settles at the traversal's peak number of live
// frames and stops changing. Releasing storage the pool never handed
// out (say, a freshly allocated vector per cut frame) parks one more
// buffer per call and grows the heap without bound, even though
// acquire() itself never allocates.
#pragma once

#include <cstddef>
#include <vector>

namespace wishbone::runtime {

class BufferPool {
 public:
  /// Returns a buffer resized to `n` (contents unspecified). Reuses the
  /// most recently released buffer when available.
  [[nodiscard]] std::vector<float> acquire(std::size_t n) {
    if (free_.empty()) return std::vector<float>(n);
    std::vector<float> buf = std::move(free_.back());
    free_.pop_back();
    buf.resize(n);
    return buf;
  }

  /// Returns a buffer's storage to the pool. Empty-capacity buffers
  /// (e.g. moved-from vectors) are dropped.
  void release(std::vector<float>&& buf) {
    if (buf.capacity() == 0) return;
    free_.push_back(std::move(buf));
  }

  [[nodiscard]] std::size_t idle_buffers() const { return free_.size(); }

 private:
  std::vector<std::vector<float>> free_;
};

}  // namespace wishbone::runtime
