#include "bench/figures.h"

#include <algorithm>

namespace papd {

const std::vector<Figure>& Figures() {
  static const std::vector<Figure> figures = [] {
    std::vector<Figure> all = PaperFigures();
    for (Figure& f : AblationFigures()) {
      all.push_back(f);
    }
    return all;
  }();
  return figures;
}

const Figure* FindFigure(const std::string& name) {
  const Figure* match = nullptr;
  for (const Figure& f : Figures()) {
    if (f.name == name) {
      return &f;
    }
    if (f.name.compare(0, name.size(), name) == 0) {
      if (match != nullptr) {
        return nullptr;  // Ambiguous prefix.
      }
      match = &f;
    }
  }
  return match;
}

void RunFigure(const Figure& figure, std::ostream& os) {
  os << "==========================================================================\n";
  os << figure.title << "\n";
  os << "(Per-Application Power Delivery, EuroSys'19 — simulator reproduction)\n";
  os << "==========================================================================\n";
  figure.run(os);
}

std::vector<const SweepPointResult*> PointsOf(const SweepResult& result,
                                              const std::string& policy) {
  std::vector<const SweepPointResult*> points;
  for (const SweepPointResult& pr : result.points) {
    if (pr.point.plotkey == policy) {
      points.push_back(&pr);
    }
  }
  return points;
}

ScenarioResult WithShares(const RunSummary& summary) {
  ScenarioResult r{summary};
  AddResourceShares(&r);
  return r;
}

ClassStats ReduceClasses(const RunSummary& r) {
  ClassStats s;
  int hp_n = 0;
  int lp_n = 0;
  for (const AppResult& app : r.apps) {
    if (app.high_priority) {
      s.hp_perf += app.norm_perf;
      s.hp_w += app.avg_core_w;
      s.hp_mhz += app.avg_active_mhz;
      hp_n++;
    } else {
      s.lp_perf += app.norm_perf;
      s.lp_w += app.avg_core_w;
      s.lp_mhz += app.avg_active_mhz;
      lp_n++;
      s.lp_starved += app.starved ? 1 : 0;
    }
  }
  if (hp_n > 0) {
    s.hp_perf /= hp_n;
    s.hp_w /= hp_n;
    s.hp_mhz /= hp_n;
  }
  if (lp_n > 0) {
    s.lp_perf /= lp_n;
    s.lp_w /= lp_n;
    s.lp_mhz /= lp_n;
  }
  return s;
}

AppGroup GroupOf(const RunSummary& r, const std::string& name) {
  const auto n = static_cast<double>(std::count_if(
      r.apps.begin(), r.apps.end(), [&name](const AppResult& a) { return a.name == name; }));
  AppGroup g;
  for (const AppResult& app : r.apps) {
    if (app.name == name) {
      g.mhz += app.avg_active_mhz / n;
      g.perf += app.norm_perf / n;
      g.freq_share += app.share_of_freq;
      g.perf_share += app.share_of_perf;
      g.power_share += app.share_of_power;
    }
  }
  return g;
}

}  // namespace papd
