// Minimal CHW float tensor used by the tensor executors.
//
// It exists to prove that HiDP's partitioned execution produces outputs
// identical to whole-model execution (the paper's §IV-B accuracy claim).
// The kernels in ops.hpp read it through raw row pointers after one window
// check per call (RowWindow::require_rows).
#pragma once

#include <cstdint>
#include <vector>

#include "dnn/layer.hpp"
#include "util/rng.hpp"

namespace hidp::tensor {

class Tensor {
 public:
  Tensor() = default;
  Tensor(int channels, int height, int width)
      : shape_{channels, height, width},
        data_(static_cast<std::size_t>(shape_.elements()), 0.0f) {}
  explicit Tensor(const dnn::Shape& shape)
      : shape_(shape), data_(static_cast<std::size_t>(shape.elements()), 0.0f) {}

  static Tensor random(const dnn::Shape& shape, util::Rng& rng, float lo = -1.0f,
                       float hi = 1.0f);

  const dnn::Shape& shape() const noexcept { return shape_; }
  int channels() const noexcept { return shape_.channels; }
  int height() const noexcept { return shape_.height; }
  int width() const noexcept { return shape_.width; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float& at(int c, int y, int x) noexcept {
    return data_[(static_cast<std::size_t>(c) * shape_.height + static_cast<std::size_t>(y)) *
                     shape_.width +
                 static_cast<std::size_t>(x)];
  }
  float at(int c, int y, int x) const noexcept {
    return data_[(static_cast<std::size_t>(c) * shape_.height + static_cast<std::size_t>(y)) *
                     shape_.width +
                 static_cast<std::size_t>(x)];
  }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }

  /// Copy of rows [y0, y1) across all channels.
  Tensor rows(int y0, int y1) const;

  /// Largest absolute element difference; infinity on shape mismatch.
  double max_abs_diff(const Tensor& other) const noexcept;

  /// True if all elements are within atol + rtol * |other|.
  bool allclose(const Tensor& other, double atol = 1e-5, double rtol = 1e-5) const noexcept;

 private:
  dnn::Shape shape_{};
  std::vector<float> data_;
};

/// A tensor holding only rows [row_offset, row_offset + data.height) of a
/// logically full_height-tall activation — the unit data-partitioned
/// execution operates on. Reads outside the window but inside
/// [0, full_height) indicate a slicing bug and are reported loudly;
/// rows outside [0, full_height) are zero padding.
struct RowWindow {
  Tensor data;
  int row_offset = 0;
  int full_height = 0;

  int begin() const noexcept { return row_offset; }
  int end() const noexcept { return row_offset + data.height(); }

  /// The one window check a kernel makes before reading rows through
  /// row(), in *global* row coordinates: throws std::logic_error unless
  /// every row of [global_begin, global_end) that lies inside
  /// [0, full_height) is materialised. Rows outside the tensor are zero
  /// padding and pass.
  void require_rows(int global_begin, int global_end) const;

  /// Channel c's row global_y, which must lie inside [begin(), end()):
  /// unchecked, for kernels that called require_rows first.
  const float* row(int c, int global_y) const noexcept {
    return data.data() +
           (static_cast<std::size_t>(c) * static_cast<std::size_t>(data.height()) +
            static_cast<std::size_t>(global_y - row_offset)) *
               static_cast<std::size_t>(data.width());
  }

  /// Wraps a full tensor as its own window.
  static RowWindow full(Tensor t) {
    RowWindow w;
    w.row_offset = 0;
    w.full_height = t.height();
    w.data = std::move(t);
    return w;
  }
};

}  // namespace hidp::tensor
