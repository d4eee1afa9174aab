#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hidp::tensor {

Tensor Tensor::random(const dnn::Shape& shape, util::Rng& rng, float lo, float hi) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.data_.size(); ++i) {
    t.data_[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::rows(int y0, int y1) const {
  if (y0 < 0 || y1 > shape_.height || y0 > y1) throw std::out_of_range("Tensor::rows");
  Tensor out(shape_.channels, y1 - y0, shape_.width);
  for (int c = 0; c < shape_.channels; ++c) {
    for (int y = y0; y < y1; ++y) {
      for (int x = 0; x < shape_.width; ++x) out.at(c, y - y0, x) = at(c, y, x);
    }
  }
  return out;
}

double Tensor::max_abs_diff(const Tensor& other) const noexcept {
  if (!(shape_ == other.shape_)) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(data_[i]) - other.data_[i]));
  }
  return worst;
}

bool Tensor::allclose(const Tensor& other, double atol, double rtol) const noexcept {
  if (!(shape_ == other.shape_)) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double a = data_[i];
    const double b = other.data_[i];
    if (std::abs(a - b) > atol + rtol * std::abs(b)) return false;
  }
  return true;
}

void RowWindow::require_rows(int global_begin, int global_end) const {
  const int lo = std::max(global_begin, 0);
  const int hi = std::min(global_end, full_height);
  if (lo < hi && (lo < begin() || hi > end())) {
    throw std::logic_error("RowWindow: read outside materialised rows (slicing bug)");
  }
}

}  // namespace hidp::tensor
