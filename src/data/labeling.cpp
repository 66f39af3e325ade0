#include "data/labeling.h"

#include <algorithm>
#include <stdexcept>

#include "obs/context.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace wefr::data {

std::vector<std::size_t> all_feature_columns(const FleetData& fleet) {
  std::vector<std::size_t> cols(fleet.num_features());
  for (std::size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  return cols;
}

Dataset build_samples(const FleetData& fleet, std::span<const std::size_t> base_cols,
                      const SamplingOptions& opt, util::Rng* rng, const obs::Context* obs) {
  obs::Span span(obs, "build_samples");
  if (opt.horizon_days < 1) throw std::invalid_argument("build_samples: horizon_days < 1");
  if (opt.negative_keep_prob < 1.0 && rng == nullptr)
    throw std::invalid_argument("build_samples: negative downsampling requires an Rng");

  const int day_hi = opt.day_hi < 0 ? fleet.num_days - 1 : opt.day_hi;

  Dataset out;
  std::vector<std::string> base_names;
  base_names.reserve(base_cols.size());
  for (std::size_t c : base_cols) {
    if (c >= fleet.num_features()) throw std::out_of_range("build_samples: base column");
    base_names.push_back(fleet.feature_names[c]);
  }
  out.feature_names = opt.expand_windows
                          ? expanded_feature_names(base_names, opt.window_config)
                          : base_names;

  // Pass 1, serial: pick the kept (drive, day) rows — `keep`, label,
  // then the Rng draw for negatives, in drive-then-day order, which
  // fixes every draw. Each drive with a kept row gets a slice of the
  // output.
  struct DriveSlice {
    std::size_t drive, begin, end;
  };
  std::vector<DriveSlice> slices;
  for (std::size_t di = 0; di < fleet.drives.size(); ++di) {
    const DriveSeries& drive = fleet.drives[di];
    if (drive.num_days() == 0) continue;

    const int lo = std::max(opt.day_lo, drive.first_day);
    const int hi = std::min(day_hi, drive.last_day());
    const std::size_t begin = out.y.size();
    for (int day = lo; day <= hi; ++day) {
      if (opt.keep && !opt.keep(di, day)) continue;
      const bool positive =
          drive.failed() && drive.fail_day > day && drive.fail_day <= day + opt.horizon_days;
      if (!positive && opt.negative_keep_prob < 1.0 &&
          !rng->bernoulli(opt.negative_keep_prob))
        continue;
      out.y.push_back(positive ? 1 : 0);
      out.drive_index.push_back(static_cast<std::int32_t>(di));
      out.day.push_back(day);
    }
    if (out.y.size() > begin) slices.push_back({di, begin, out.y.size()});
  }

  // Pass 2: only drives with a kept row compute features, each into its
  // own slice of the output, so any thread count writes the same bytes.
  out.x = Matrix::uninitialized(out.y.size(), out.feature_names.size());
  const std::size_t width = out.x.cols();
  auto fill_slice = [&](std::size_t k) {
    const DriveSlice& slice = slices[k];
    const DriveSeries& drive = fleet.drives[slice.drive];
    std::vector<std::size_t> local(slice.end - slice.begin);
    for (std::size_t r = slice.begin; r < slice.end; ++r)
      local[r - slice.begin] = static_cast<std::size_t>(out.day[r] - drive.first_day);
    const std::span<double> block =
        out.x.raw().subspan(slice.begin * width, local.size() * width);
    if (opt.expand_windows) {
      // Only the kept days are expanded, straight into the slice. The
      // kernel still folds every column from day 0, so each row is
      // bit-identical to the whole-history features (running sums would
      // otherwise drift ~1e-15 relative depending on where a slice
      // started).
      expand_series_into(drive.values, base_cols, local, opt.window_config, block, obs);
      return;
    }
    for (std::size_t i = 0; i < local.size(); ++i) {
      const auto src = drive.values.row(local[i]);
      double* dst = block.data() + i * width;
      for (std::size_t j = 0; j < base_cols.size(); ++j) dst[j] = src[base_cols[j]];
    }
  };
  if (opt.num_threads > 1 && slices.size() > 1) {
    util::ThreadPool pool(std::min(opt.num_threads, slices.size()));
    pool.parallel_for(slices.size(), fill_slice);
  } else {
    for (std::size_t k = 0; k < slices.size(); ++k) fill_slice(k);
  }
  out.validate();
  if (obs != nullptr) {
    obs::add_counter(obs, "wefr_samples_total", out.size());
    obs::add_counter(obs, "wefr_samples_positive_total", out.num_positive());
  }
  return out;
}

Dataset build_samples(const FleetData& fleet, const SamplingOptions& opt, util::Rng* rng,
                      const obs::Context* obs) {
  const auto cols = all_feature_columns(fleet);
  return build_samples(fleet, cols, opt, rng, obs);
}

}  // namespace wefr::data
