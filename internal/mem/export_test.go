package mem

// ArraysFreed reports how many large image arrays the process has freed
// so far, for the package's external tests.
func ArraysFreed() int64 { return arraysFreed.Load() }
