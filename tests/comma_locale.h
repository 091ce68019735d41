// Test helper: switches LC_NUMERIC to an installed comma-decimal locale,
// so a test can check that number text and number parsing ignore the
// process locale. Tests that use it skip when no such locale is
// installed.

#ifndef XSKETCH_TESTS_COMMA_LOCALE_H_
#define XSKETCH_TESTS_COMMA_LOCALE_H_

#include <clocale>
#include <string>

namespace xsketch {

// Switches LC_NUMERIC to an installed comma-decimal locale for the
// object's lifetime; ok() is false when none is installed.
class CommaDecimalLocale {
 public:
  CommaDecimalLocale() : saved_(std::setlocale(LC_NUMERIC, nullptr)) {
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8",
          "fr_FR", "nl_NL.UTF-8", "es_ES.UTF-8", "ru_RU.UTF-8"}) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr &&
          std::string(std::localeconv()->decimal_point) == ",") {
        ok_ = true;
        return;
      }
    }
    std::setlocale(LC_NUMERIC, saved_.c_str());
  }
  ~CommaDecimalLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }
  CommaDecimalLocale(const CommaDecimalLocale&) = delete;
  CommaDecimalLocale& operator=(const CommaDecimalLocale&) = delete;
  bool ok() const { return ok_; }

 private:
  std::string saved_;
  bool ok_ = false;
};

}  // namespace xsketch

#endif  // XSKETCH_TESTS_COMMA_LOCALE_H_
