// Regenerates the paper's tables: `papd_figures NAME` prints one figure
// (NAME is a registry name such as fig09_shares_skylake, or a unique prefix
// of one such as fig09); `papd_figures` prints every figure in paper order.

#include <cstdio>
#include <iostream>

#include "bench/figures.h"

int main(int argc, char** argv) {
  if (argc == 1) {
    for (const papd::Figure& f : papd::Figures()) {
      papd::RunFigure(f, std::cout);
      std::cout << "\n";
    }
    return 0;
  }
  const papd::Figure* figure = argc == 2 ? papd::FindFigure(argv[1]) : nullptr;
  if (figure == nullptr) {
    std::fprintf(stderr, "usage: %s [NAME]\nfigures:\n", argv[0]);
    for (const papd::Figure& f : papd::Figures()) {
      std::fprintf(stderr, "  %-30s %s\n", f.name.c_str(), f.title.c_str());
    }
    return 2;
  }
  papd::RunFigure(*figure, std::cout);
  return 0;
}
