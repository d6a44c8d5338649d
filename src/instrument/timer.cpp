#include "instrument/timer.h"

namespace qmcxx
{

const char* kernel_name(Kernel k)
{
  switch (k)
  {
  case Kernel::DistTable: return "DistTable";
  case Kernel::J1: return "J1";
  case Kernel::J2: return "J2";
  case Kernel::BsplineV: return "Bspline-v";
  case Kernel::BsplineVGH: return "Bspline-vgh";
  case Kernel::SPOvgl: return "SPO-vgl";
  case Kernel::DetRatio: return "DetRatio";
  case Kernel::DetUpdate: return "DetUpdate";
  case Kernel::Coulomb: return "Coulomb";
  case Kernel::Other: return "Other";
  default: return "?";
  }
}

TimerRegistry& TimerRegistry::instance()
{
  static TimerRegistry registry;
  return registry;
}

KernelTotals& TimerRegistry::local_totals()
{
  thread_local KernelTotals totals;
  return totals;
}

void TimerRegistry::add(Kernel k, double seconds)
{
  KernelTotals& totals = local_totals();
  totals.seconds[static_cast<int>(k)] += seconds;
  totals.calls[static_cast<int>(k)] += 1;
}

void TimerRegistry::flush_local()
{
  KernelTotals& totals = local_totals();
  std::lock_guard<std::mutex> lock(mutex_);
  for (int i = 0; i < static_cast<int>(Kernel::kCount); ++i)
  {
    merged_.seconds[i] += totals.seconds[i];
    merged_.calls[i] += totals.calls[i];
  }
  totals = KernelTotals{};
}

KernelTotals TimerRegistry::snapshot()
{
  flush_local();
  std::lock_guard<std::mutex> lock(mutex_);
  return merged_;
}

void TimerRegistry::reset()
{
  local_totals() = KernelTotals{};
  std::lock_guard<std::mutex> lock(mutex_);
  merged_ = KernelTotals{};
}

} // namespace qmcxx
