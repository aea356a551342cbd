#include "src/common/json.h"  // Kept for callers that include the old path.
