import sys

from ledger.run import main

sys.exit(main())
