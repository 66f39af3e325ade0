#include "core/survival.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace wefr::core {

SurvivalCurve survival_vs_mwi(const data::FleetData& fleet, int as_of_day,
                              std::size_t min_count, int bucket_width) {
  const int mwi_col = fleet.feature_index("MWI_N");
  if (mwi_col < 0) throw std::invalid_argument("survival_vs_mwi: fleet lacks MWI_N");
  if (as_of_day < 0) throw std::invalid_argument("survival_vs_mwi: negative as_of_day");
  if (bucket_width < 1) throw std::invalid_argument("survival_vs_mwi: bucket_width < 1");

  SurvivalCurve curve;
  std::map<int, std::pair<std::size_t, std::size_t>> buckets;  // lower edge -> (total, failed)
  for (const auto& drive : fleet.drives) {
    if (drive.first_day > as_of_day || drive.num_days() == 0) continue;
    const int last = std::min(as_of_day, drive.last_day());
    const std::size_t local = static_cast<std::size_t>(last - drive.first_day);
    const double mwi_value = drive.values(local, static_cast<std::size_t>(mwi_col));
    if (std::isnan(mwi_value)) {
      // Unrepaired missing wear indicator: the drive cannot be placed
      // on the curve (lround(NaN) is undefined behavior anyway).
      ++curve.drives_skipped_nan;
      continue;
    }
    const int raw = static_cast<int>(std::lround(mwi_value));
    auto& [total, failed] = buckets[raw / bucket_width * bucket_width];
    ++total;
    if (drive.failed() && drive.fail_day <= as_of_day) ++failed;
  }
  for (const auto& [v, counts] : buckets) {
    const auto [total, failed] = counts;
    if (total < min_count) continue;
    curve.mwi.push_back(static_cast<double>(v));
    curve.rate.push_back(static_cast<double>(total - failed) / static_cast<double>(total));
    curve.total.push_back(total);
  }
  return curve;
}

std::optional<WearChangePoint> detect_wear_change_point(const SurvivalCurve& curve,
                                                        const changepoint::CpdOptions& opt) {
  // Too few distinct MWI_N values (paper: MB1/MB2's narrow wear band)
  // cannot support a meaningful regime shift.
  if (curve.mwi.size() < 8) return std::nullopt;
  const auto cp = changepoint::most_significant_change(curve.rate, opt);
  if (!cp.has_value()) return std::nullopt;
  WearChangePoint out;
  out.mwi_threshold = curve.mwi[cp->index];
  out.zscore = cp->zscore;
  out.probability = cp->probability;
  return out;
}

}  // namespace wefr::core
