/**
 * @file
 * Whole-file output for the documents the tools and benches write.
 */
#ifndef SO_COMMON_FILE_H
#define SO_COMMON_FILE_H

#include <initializer_list>
#include <string>
#include <string_view>

namespace so {

/**
 * Replace @p path with @p parts written back to back. Returns false
 * when the open, a write or the close fails: a full device may report
 * only at the close, so a caller that checked only the open would
 * announce a file that was never written.
 */
bool writeFile(const std::string &path,
               std::initializer_list<std::string_view> parts);

} // namespace so

#endif // SO_COMMON_FILE_H
